package access

import (
	"slices"

	"repro/internal/relation"
)

// This file holds a ladder's two row stores. The item store keeps every
// group's items — the raw Y-projections of its base tuples, duplicates
// kept, one row each — in typed Y columns, a group's items being one row
// range. The level arena keeps the views of all groups' levels as
// selections over the item store: representatives are actual items, so a
// level row is a pair of int32s, the offset of its item within the group's
// items and the number of base tuples it represents. Each group's levels
// are stored contiguously, level after level, so that a level is a row
// range of the arena. A LevelBlock records that range, together with the
// item columns and the group's first item row it selects from; a group
// holds its levels' records in one slice and FetchBlock hands out pointers
// into it, so a fetch allocates nothing and the heap holds a few large
// columns instead of a block per (group, level) or an object per item. The
// executor (internal/plan) gathers a fetched level's values from the item
// columns one column at a time (Column.AppendIndexes), and the snapshot
// encodes a level row as the very pair it is (see GroupSnapshot).

// crowded reports whether a store holding live rows some group covers and
// dead rows none does must compact before placing n more: the dead rows
// would otherwise be at least as many as the live ones.
func crowded(live, dead, n int) bool { return dead > 0 && dead >= live+n }

// rowStore is the placement discipline both stores follow, and the item
// store itself: rows live in one block of typed columns, a group's rows are
// one range of it, and rows are never rewritten. A group whose rows are
// replaced has its new rows placed after the others and its old ones
// counted dead, and a compaction into fresh columns keeps dead rows from
// outnumbering live ones (crowded), so the copying is amortised over the
// replacements that left the dead rows behind. Views handed out earlier
// therefore stay valid.
type rowStore struct {
	y    *relation.Block
	dead int // rows no group covers any more
}

// live returns the number of rows some group covers.
func (s *rowStore) live() int { return s.y.Rows() - s.dead }

// reserve grows the columns' capacity for n more rows.
func (s *rowStore) reserve(n int) {
	for c := 0; c < s.y.Width(); c++ {
		s.y.Col(c).Reserve(s.y.Col(c).Kind(), n)
	}
}

// compact moves the live rows into fresh columns with room for extra more
// and drops the dead ones. ranges calls move once per live range [lo, hi),
// in the order the ranges are to be laid out, and move returns the range's
// new first row; s.y is already the fresh block while ranges runs. compact
// returns the old block, which stays readable.
func (s *rowStore) compact(extra int, ranges func(move func(lo, hi int) int)) *relation.Block {
	old := s.y
	y := relation.NewBlock(old.Width())
	for c := 0; c < y.Width(); c++ {
		if src := old.Col(c); !src.Mixed() {
			y.Col(c).Reserve(src.Kind(), s.live()+extra)
		}
	}
	s.y, s.dead = y, 0
	ranges(func(lo, hi int) int {
		first := y.Rows()
		y.AppendBlockRange(old, lo, hi)
		return first
	})
	return old
}

// rowRange is rows [first, first+rows) of a row store.
type rowRange struct{ first, rows int }

// end returns one past the range's last row.
func (r rowRange) end() int { return r.first + r.rows }

// levelArena holds one ladder's level rows as two int32 columns. Row r is
// one representative: the item at offset item[r] of its group's item range,
// and the number of base tuples it represents in count[r]. The offsets are
// group-relative, so compacting the item store moves no arena row. Rows are
// placed as rowStore says.
type levelArena struct {
	item, count []int32
	dead        int // rows no group covers any more
}

// live returns the number of rows some group covers.
func (a *levelArena) live() int { return len(a.item) - a.dead }

// levelRow is one representative on its way into an arena: the offset of
// its item within its group's items, and the number of base tuples it
// represents.
type levelRow struct{ item, count int32 }

// LevelBlock is one fetch level in columnar form: a selection of a group's
// items. Row i of the level is item row Base+Offsets()[i] of the item
// columns, with Counts()[i] the number of base tuples it represents; the
// offsets and counts are rows [first, first+rows) of an arena. Blocks are
// shared read-only views.
type LevelBlock struct {
	arena       *levelArena
	items       *relation.Block // the item columns the level selects from
	base        int             // the group's first item row
	first, rows int
}

// NewLevelBlock returns a standalone level holding y's rows in order, with
// counts[i] the represented-tuple count of row i (len(counts) must be
// y.Rows()) — the form a level takes when it arrives from another process:
// the identity selection over y.
func NewLevelBlock(y *relation.Block, counts []int32) *LevelBlock {
	item := make([]int32, y.Rows())
	for i := range item {
		item[i] = int32(i)
	}
	return &LevelBlock{arena: &levelArena{item: item, count: counts}, items: y, rows: y.Rows()}
}

// Rows returns the number of samples in the level.
func (b *LevelBlock) Rows() int { return b.rows }

// ItemCol returns the item column holding Y attribute j; the level's rows
// are the rows of it that Offsets names. It is shared storage: read-only.
func (b *LevelBlock) ItemCol(j int) *relation.Column { return b.items.Col(j) }

// Offsets returns the level's selection of ItemCol's rows: row i of the
// level is row base+offs[i]. offs is shared storage: read-only.
func (b *LevelBlock) Offsets() (base int, offs []int32) {
	end := b.first + b.rows
	return b.base, b.arena.item[b.first:end:end]
}

// Counts returns the per-sample represented-tuple counts, read-only.
func (b *LevelBlock) Counts() []int32 {
	end := b.first + b.rows
	return b.arena.count[b.first:end:end]
}

// Y returns the level's Y-tuples as a fresh block gathered from the item
// columns. It allocates, so the fetch path gathers through ItemCol and
// Offsets into its own output instead.
func (b *LevelBlock) Y() *relation.Block {
	y := relation.NewBlock(b.items.Width())
	base, offs := b.Offsets()
	for j := 0; j < y.Width(); j++ {
		y.Col(j).AppendIndexes(b.items.Col(j), offs, base)
	}
	y.AddRows(b.rows)
	return y
}

// Prefix returns a read-only view of the first n samples — what a fetch
// keeps of a level under a budget that runs out inside it. A nil block (a
// missing group) stays nil.
func (b *LevelBlock) Prefix(n int) *LevelBlock {
	if b == nil || n >= b.rows {
		return b
	}
	p := *b
	p.rows = n
	return &p
}

// place points the group's levels, whose first rows are offsets into the
// group's own rows, at l's arena rows from first on, and at l's items.
func (g *ladderGroup) place(l *Ladder, first int) {
	for k := range g.levels {
		g.levels[k].arena = l.arena
		g.levels[k].first += first
	}
	g.rebase(l.items.y)
}

// rebase points the group's levels at its items in the item columns y,
// where they start at row g.items.first.
func (g *ladderGroup) rebase(y *relation.Block) {
	for k := range g.levels {
		g.levels[k].items, g.levels[k].base = y, g.items.first
	}
}

// placeRows appends the job's level rows to its ladder's arena and places
// the group's levels there.
func (j groupBuild) placeRows() {
	a := j.l.arena
	first := len(a.item)
	for _, r := range j.rows {
		a.item = append(a.item, r.item)
		a.count = append(a.count, r.count)
	}
	j.g.place(j.l, first)
}

// packArenas gives every ladder with jobs a fresh arena holding exactly its
// jobs' rows (callers pass all of a ladder's groups), in job order, and
// places each group's levels in it.
func packArenas(jobs []groupBuild) {
	rows := make(map[*levelArena]int)
	for _, j := range jobs {
		rows[j.l.arena] += len(j.rows)
	}
	for a, n := range rows {
		*a = levelArena{item: make([]int32, 0, n), count: make([]int32, 0, n)}
	}
	for _, j := range jobs {
		j.placeRows()
	}
}

// placeRebuilt places the rows of l's groups rebuilt by maintenance (l's
// jobs among jobs) in l's arena, whose rows of those groups were already
// counted dead: after the arena's rows, compacting first when the arena is
// crowded (repack).
func (l *Ladder) placeRebuilt(jobs []groupBuild) {
	a := l.arena
	n := 0
	for _, j := range jobs {
		if j.l == l {
			n += len(j.rows)
		}
	}
	if crowded(a.live(), a.dead, n) {
		l.repack(n)
	} else {
		a.item, a.count = slices.Grow(a.item, n), slices.Grow(a.count, n)
	}
	for _, j := range jobs {
		if j.l == l {
			j.placeRows()
		}
	}
}

// repack compacts the arena into fresh columns with room for extra more
// rows, group by group. Groups rebuilt but not yet placed (their levels
// point at no arena) have no live rows to move.
func (l *Ladder) repack(extra int) {
	a := l.arena
	item, count := make([]int32, 0, a.live()+extra), make([]int32, 0, a.live()+extra)
	l.groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
		if g.levels[0].arena != a {
			return true
		}
		lo, hi := g.span()
		shift := len(item) - lo
		for k := range g.levels {
			g.levels[k].first += shift
		}
		item, count = append(item, a.item[lo:hi]...), append(count, a.count[lo:hi]...)
		return true
	})
	a.item, a.count, a.dead = item, count, 0
}

// span returns the arena rows [lo, hi) holding the group's levels; empty
// for a group not yet placed.
func (g *ladderGroup) span() (lo, hi int) {
	if len(g.levels) == 0 {
		return 0, 0
	}
	last := g.levels[len(g.levels)-1]
	return g.levels[0].first, last.first + last.rows
}

// fetchBlock returns the group's level-k view. k is clamped to [0, exact
// level], matching kdtree.Tree.Level.
func (g *ladderGroup) fetchBlock(k int) *LevelBlock {
	return &g.levels[max(0, min(k, len(g.levels)-1))]
}

// FetchBlock returns the level-k samples for one X-value tuple in columnar
// form; nil when the X-value is not indexed. The block is a shared
// read-only view: the same pointer on every call until maintenance rebuilds
// the group.
func (l *Ladder) FetchBlock(x relation.Tuple, k int) *LevelBlock {
	g, ok := l.groups.Get(x)
	if !ok {
		return nil
	}
	return g.fetchBlock(k)
}

// FetchBatchBlocks resolves the level-k blocks for every X-value of xs, in
// input order (out[i] corresponds to xs[i]; nil for missing groups), with
// one map lookup each on the calling goroutine. Results are the shared
// read-only views FetchBlock returns. workers is ignored.
func (l *Ladder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	out := make([]*LevelBlock, len(xs))
	for i, x := range xs {
		out[i] = l.FetchBlock(x, k)
	}
	return out
}
