package access

import (
	"repro/internal/kdtree"
	"repro/internal/relation"
)

// ladderGroup is the storage of one X-group of a Ladder, kept in the
// ladder's group map under its X-value: where its items sit in the
// ladder's item store — the raw Y-projections of its base tuples,
// duplicates kept, one row each, that incremental maintenance rebuilds
// from — and where its level views sit in the ladder's arena (block.go),
// each level a selection of those items by group-relative offset. The
// group's K-D tree lives only inside rebuild: the views are everything the
// fetch path and the snapshot need of it.
type ladderGroup struct {
	key relation.Tuple
	// items is the group's row range of the ladder's item store.
	items rowRange
	// levels[k] is the level-k fetch view: a row range of the ladder's arena
	// selecting from items. The levels' ranges are adjacent, in level order.
	levels []LevelBlock
	// res holds the group's per-level per-attribute resolutions (the max of
	// Rep.MaxDist over the level), level k at [k·|Y|, (k+1)·|Y|), so ladder
	// metadata refreshes never re-walk a tree.
	res []float64
	// distinct is the group's distinct-Y count (kdtree.Tree.Items of the
	// built tree).
	distinct int
}

// exactLevel returns the level at which the group resolves exactly —
// kdtree.Tree.ExactLevel, derived from the level views.
func (g *ladderGroup) exactLevel() int { return len(g.levels) - 1 }

// rebuild reconstructs the level views from the group's items, rows of
// items: a K-D tree over the g items — O(g log g) per tree level,
// independent of |D| and of every other group — whose per-level
// representatives and resolutions are read in one pass, after which the
// tree is garbage. It returns the representatives, level after level, as
// offsets into the group's items for the ladder to place in its arena;
// until then the levels' first rows are offsets into that list.
func (g *ladderGroup) rebuild(yAttrs []relation.Attribute, items *relation.Block) []levelRow {
	tree := kdtree.Build(yAttrs, items, g.items.first, g.items.end())
	g.distinct = tree.Items()
	all := tree.AllLevels()
	total := 0
	for _, reps := range all {
		total += len(reps)
	}
	arity := len(yAttrs)
	rows := make([]levelRow, 0, total)
	g.levels = make([]LevelBlock, len(all))
	g.res = make([]float64, len(all)*arity)
	for k, reps := range all {
		g.levels[k] = LevelBlock{first: len(rows), rows: len(reps)}
		res := g.res[k*arity : (k+1)*arity]
		for _, r := range reps {
			rows = append(rows, levelRow{item: int32(r.Row - g.items.first), count: int32(r.Count)})
			for a, d := range r.MaxDist {
				if d > res[a] {
					res[a] = d
				}
			}
		}
	}
	return rows
}
