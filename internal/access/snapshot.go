package access

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/relation"
)

// This file implements the portable form of a ladder, the unit the
// persistence layer (internal/persist) writes to disk: the ladder's item
// rows in one block and, per group, the X-key, the range of its items (what
// incremental maintenance rebuilds from), the per-level fetch views as item
// references and the per-level resolutions (what the online path serves
// from), and the distinct-Y count. Kd-tree STRUCTURE is deliberately not
// serialised: the fetch path never touches a tree, only the views made from
// one, and the first maintenance operation on a restored group rebuilds its
// views from its items deterministically — so restoring is a linear pass
// with identical FetchBlock results, and a snapshot stays a flat, checkable
// artifact.

// LevelRef is one row of a level view in portable form, exactly as the
// ladder's arena stores it: the index of its item among the group's items
// — the tree representative, which is the first item key-equal to it,
// since kdtree.Build merges key-equal items into the first of them — and
// the number of base tuples it represents.
type LevelRef struct {
	Item  int
	Count int
}

// GroupSnapshot is the portable state of one ladder group.
type GroupSnapshot struct {
	// Key is the group's X-value tuple (empty for X = ∅ ladders).
	Key relation.Tuple
	// First and Items locate the group's items, rows [First, First+Items)
	// of the ladder snapshot's Items block: the raw Y-projections of its
	// base tuples in stored order, duplicates kept, one per base tuple —
	// what incremental maintenance rebuilds from.
	First, Items int
	// Distinct is the group's distinct-Y count (the built tree's item
	// count; not derivable from Levels when distance-zero points collapse
	// into one leaf).
	Distinct int
	// Levels are the per-level fetch views, exactly as the group serves
	// them, one LevelRef per row.
	Levels [][]LevelRef
	// Resolutions are the per-level per-attribute group resolutions that
	// ladder metadata aggregates.
	Resolutions [][]float64
}

// LadderSnapshot is the portable state of one ladder: its identity (relation
// and attribute sets), its item rows and every group. Groups are sorted by
// canonical X-key so snapshots of equal ladders are byte-identical
// regardless of group-map iteration order.
type LadderSnapshot struct {
	RelName string
	X, Y    []string
	// Items holds every group's items, one column per Y attribute; rows no
	// group's range covers are ignored.
	Items  *relation.Block
	Groups []GroupSnapshot
}

// Snapshot captures the ladder's full state for serialisation. The returned
// tuples and item block are shared with the live ladder and must be treated
// as read-only; take the snapshot under the same single-writer discipline
// as maintenance, and use it before the ladder is maintained again.
func (l *Ladder) Snapshot() LadderSnapshot {
	snap := LadderSnapshot{
		RelName: l.RelName,
		X:       append([]string(nil), l.X...),
		Y:       append([]string(nil), l.Y...),
		Items:   l.items.y,
	}
	d := &l.dir
	xs := l.GroupXs() // the live slots' keys, in slot order
	slots := make([]int, 0, len(xs))
	for s := 0; s < d.slots(); s++ {
		if d.live(s) {
			slots = append(slots, s)
		}
	}
	// Sort by canonical key, each group's key built once.
	order := make([]int, len(xs))
	keys := make([]string, len(xs))
	for i, x := range xs {
		order[i], keys[i] = i, x.Key()
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	snap.Groups = make([]GroupSnapshot, len(order))
	for i, o := range order {
		snap.Groups[i] = l.groupSnapshot(slots[o], xs[o])
	}
	return snap
}

// groupSnapshot returns the portable state of slot s, keyed by x. Its level
// rows are read straight from the arena, whose rows are LevelRefs already.
func (l *Ladder) groupSnapshot(s int, x relation.Tuple) GroupSnapshot {
	d, a := &l.dir, &l.arena
	arity := len(l.yAttrs)
	lo, hi := d.span(s)
	refs := make([]LevelRef, hi-lo)
	for r := range refs {
		refs[r] = LevelRef{Item: int(a.item[lo+r]), Count: int(a.count[lo+r])}
	}
	items := d.items(s)
	r := d.recs[s]
	n := int(r.lvlCount)
	gs := GroupSnapshot{
		Key:         x,
		First:       items.first,
		Items:       items.rows,
		Distinct:    int(r.distinct),
		Levels:      make([][]LevelRef, n),
		Resolutions: make([][]float64, n),
	}
	for k := 0; k < n; k++ {
		first, rows := d.level(s, k)
		off := first - lo
		gs.Levels[k] = refs[off : off+rows : off+rows]
		e := int(r.lvlFirst) + k
		gs.Resolutions[k] = d.res[e*arity : (e+1)*arity : (e+1)*arity]
	}
	return gs
}

// RestoreLadder rebuilds a ladder from its snapshot against the database the
// snapshot was taken over. No kd-tree is built: the ladder adopts snap.Items
// as its item store, without copying it, and the arena takes the level
// references as they are, so the views select the same items as the
// original ladder's; the directory is filled from the groups as they come,
// and a group is rebuilt from its items on its first maintenance touch.
// Because the block is adopted, a snapshot restores one ladder that may be
// maintained, and only while the ladder it was taken from is not.
// Structural problems (unknown relation or attributes, malformed groups)
// are reported as errors, never panics.
func RestoreLadder(db *relation.Database, snap LadderSnapshot) (*Ladder, error) {
	l, _, err := newLadder(db, snap.RelName, snap.X, snap.Y)
	if err != nil {
		return nil, fmt.Errorf("access: restore: %w", err)
	}
	arity := len(l.yAttrs)
	if snap.Items == nil || snap.Items.Width() != arity {
		return nil, fmt.Errorf("access: restore %s: item block does not have %d columns", snap.RelName, arity)
	}
	total, levels, items := 0, 0, 0
	for gi := range snap.Groups {
		gs := &snap.Groups[gi]
		if err := validGroup(gs, len(l.xIdx), arity, snap.Items.Rows()); err != nil {
			return nil, fmt.Errorf("access: restore %s group %v: %w", snap.RelName, gs.Key, err)
		}
		for _, lvl := range gs.Levels {
			total += len(lvl)
		}
		levels += len(gs.Levels)
		items += gs.Items
	}
	if items > snap.Items.Rows() {
		return nil, fmt.Errorf("access: restore %s: groups cover %d items of a %d-row block", snap.RelName, items, snap.Items.Rows())
	}
	l.items = rowStore{y: snap.Items, dead: snap.Items.Rows() - items}
	a, d := &l.arena, &l.dir
	a.item, a.count = make([]int32, 0, total), make([]int32, 0, total)
	d.spans, d.res = make([]int32, 0, 2*levels), make([]float64, 0, levels*arity)
	for gi := range snap.Groups {
		gs := &snap.Groups[gi]
		s := d.slot(gs.Key)
		if d.recs[s].itemRows != 0 {
			return nil, fmt.Errorf("access: restore %s: two groups keyed %v", snap.RelName, gs.Key)
		}
		d.recs[s] = slotRec{
			itemFirst: int32(gs.First), itemRows: int32(gs.Items),
			distinct: int32(gs.Distinct),
			lvlFirst: int32(len(d.spans) / 2), lvlCount: int32(len(gs.Levels)),
		}
		for k, lvl := range gs.Levels {
			d.spans = append(d.spans, int32(len(a.item)), int32(len(lvl)))
			d.res = append(d.res, gs.Resolutions[k]...)
			for _, ref := range lvl {
				a.item, a.count = append(a.item, int32(ref.Item)), append(a.count, int32(ref.Count))
			}
		}
	}
	l.recomputeMeta()
	return l, nil
}

// validGroup checks the structural invariants a restored group must satisfy
// before it can serve fetches, over X and Y attributes of the given
// arities; rows is the item block's row count.
func validGroup(gs *GroupSnapshot, xArity, arity, rows int) error {
	if len(gs.Key) != xArity {
		return fmt.Errorf("key of %d values for %d X attributes", len(gs.Key), xArity)
	}
	if gs.Items <= 0 || gs.Items > math.MaxInt32 || gs.First < 0 || gs.First > rows-gs.Items {
		return fmt.Errorf("item range [%d, +%d) outside a %d-row block", gs.First, gs.Items, rows)
	}
	if gs.Distinct < 1 || gs.Distinct > gs.Items {
		return fmt.Errorf("distinct count %d outside [1, %d]", gs.Distinct, gs.Items)
	}
	if len(gs.Levels) == 0 || len(gs.Resolutions) != len(gs.Levels) {
		return fmt.Errorf("%d levels with %d resolution rows", len(gs.Levels), len(gs.Resolutions))
	}
	for k, lvl := range gs.Levels {
		if len(lvl) == 0 {
			return fmt.Errorf("level %d is empty", k)
		}
		for _, ref := range lvl {
			if ref.Item < 0 || ref.Item >= gs.Items || ref.Count <= 0 || ref.Count > gs.Items {
				return fmt.Errorf("level %d has a malformed row", k)
			}
		}
		if len(gs.Resolutions[k]) != arity {
			return fmt.Errorf("level %d resolution arity %d != %d", k, len(gs.Resolutions[k]), arity)
		}
	}
	return nil
}
