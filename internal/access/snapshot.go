package access

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// This file implements the portable form of a ladder, the unit the
// persistence layer (internal/persist) writes to disk: per group, the
// X-key, the raw tuple list (what incremental maintenance mutates), the
// per-level fetch views as item references and the per-level resolutions
// (what the online path serves from), and the distinct-Y count. Kd-tree
// STRUCTURE is deliberately not serialised: the fetch path never touches a
// tree, only the views made from one, and the first maintenance operation on
// a restored group rebuilds its views from the tuple list deterministically
// — so restoring is a linear pass with identical FetchBlock results, and a
// snapshot stays a flat, checkable artifact.

// LevelRef is one row of a level view in portable form. Representatives are
// actual items, so a row is the index of its item in the group's item list —
// the first item key-equal to it — and the number of base tuples it
// represents.
type LevelRef struct {
	Item  int
	Count int
}

// GroupSnapshot is the portable state of one ladder group.
type GroupSnapshot struct {
	// Key is the group's X-value tuple (empty for X = ∅ ladders).
	Key relation.Tuple
	// Items is the group's raw Y-projection tuple list in stored order,
	// duplicates kept — the list incremental maintenance rebuilds from.
	Items []kdtree.Item
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
// and attribute sets), the shard count it was built with, and every group.
// Groups are sorted by canonical X-key so snapshots of equal ladders are
// byte-identical regardless of shard-map iteration order.
type LadderSnapshot struct {
	RelName string
	X, Y    []string
	Shards  int
	Groups  []GroupSnapshot
}

// Snapshot captures the ladder's full state for serialisation. The returned
// tuples and item lists are shared with the live ladder and must be treated
// as read-only; take the snapshot under the same single-writer discipline
// as maintenance.
func (l *Ladder) Snapshot() LadderSnapshot {
	snap := LadderSnapshot{
		RelName: l.RelName,
		X:       append([]string(nil), l.X...),
		Y:       append([]string(nil), l.Y...),
		Shards:  l.store.NumShards(),
	}
	l.store.rangeGroups(func(g *ladderGroup) bool {
		snap.Groups = append(snap.Groups, g.snapshot(len(l.Y)))
		return true
	})
	sort.Slice(snap.Groups, func(i, j int) bool {
		return snap.Groups[i].Key.Key() < snap.Groups[j].Key.Key()
	})
	return snap
}

// snapshot returns the group's portable state. Each arena row holds the
// values of the item a tree representative came from — kdtree.Build merges
// key-equal items into the first of them — so looking the row up among the
// items by key equality finds that item.
func (g *ladderGroup) snapshot(arity int) GroupSnapshot {
	firstIdx := relation.NewTupleMap[int](len(g.items))
	for i, it := range g.items {
		if _, dup := firstIdx.Get(it.Tuple); !dup {
			firstIdx.Put(it.Tuple, i)
		}
	}
	lo, hi := g.span()
	a := g.levels[0].arena
	refs := make([]LevelRef, hi-lo)
	row := make(relation.Tuple, arity)
	for r := range refs {
		for c := range row {
			row[c] = a.y.Value(lo+r, c)
		}
		idx, ok := firstIdx.Get(row)
		if !ok {
			panic(fmt.Sprintf("access: group %v level row %v is not an item", g.key, row))
		}
		refs[r] = LevelRef{Item: idx, Count: a.counts[lo+r]}
	}
	gs := GroupSnapshot{
		Key:         g.key,
		Items:       g.items,
		Distinct:    g.distinct,
		Levels:      make([][]LevelRef, len(g.levels)),
		Resolutions: make([][]float64, len(g.levels)),
	}
	for k, lb := range g.levels {
		off := lb.first - lo
		gs.Levels[k] = refs[off : off+lb.rows : off+lb.rows]
		gs.Resolutions[k] = g.res[k*arity : (k+1)*arity : (k+1)*arity]
	}
	return gs
}

// RestoreLadder rebuilds a ladder from its snapshot against the database the
// snapshot was taken over. Groups are re-partitioned across `shards` shards
// (0 keeps the snapshot's count) — partitioning is a deterministic function
// of the X-value hash, so the shard count never changes what a fetch
// returns. No kd-tree is built: the arena is filled straight from the item
// lists the level references point into, identical to the original
// ladder's views, and a group is rebuilt from its tuple list on its first
// maintenance touch. Structural problems (unknown relation or attributes,
// malformed groups) are reported as errors, never panics.
func RestoreLadder(db *relation.Database, snap LadderSnapshot, shards int) (*Ladder, error) {
	if shards <= 0 {
		shards = snap.Shards
	}
	l, _, err := newLadder(db, snap.RelName, snap.X, snap.Y, resolveShards(shards))
	if err != nil {
		return nil, fmt.Errorf("access: restore: %w", err)
	}
	arity := len(l.yAttrs)
	total := 0
	for gi := range snap.Groups {
		gs := &snap.Groups[gi]
		if err := validGroup(gs, arity); err != nil {
			return nil, fmt.Errorf("access: restore %s group %v: %w", snap.RelName, gs.Key, err)
		}
		for _, lvl := range gs.Levels {
			total += len(lvl)
		}
	}
	// One backing array for every group's rows: restoration is the warm
	// path's bulk work, and per-group slices would dominate its allocations.
	rows := make([]levelRow, 0, total)
	jobs := make([]groupBuild, len(snap.Groups))
	for gi := range snap.Groups {
		gs := &snap.Groups[gi]
		g := &ladderGroup{
			key:      gs.Key,
			items:    gs.Items,
			distinct: gs.Distinct,
			levels:   make([]LevelBlock, len(gs.Levels)),
			res:      make([]float64, len(gs.Levels)*arity),
		}
		start := len(rows)
		for k, lvl := range gs.Levels {
			g.levels[k] = LevelBlock{first: len(rows) - start, rows: len(lvl)}
			copy(g.res[k*arity:], gs.Resolutions[k])
			for _, ref := range lvl {
				rows = append(rows, levelRow{y: gs.Items[ref.Item].Tuple, count: ref.Count})
			}
		}
		jobs[gi] = groupBuild{l: l, g: g, rows: rows[start:len(rows):len(rows)]}
	}
	packArenas(jobs, runtime.GOMAXPROCS(0))
	for _, j := range jobs {
		l.store.put(j.g)
	}
	l.recomputeMeta()
	return l, nil
}

// validGroup checks the structural invariants a restored group must satisfy
// before it can serve fetches.
func validGroup(gs *GroupSnapshot, arity int) error {
	if len(gs.Items) == 0 {
		return fmt.Errorf("empty item list")
	}
	for _, it := range gs.Items {
		if len(it.Tuple) != arity {
			return fmt.Errorf("item arity %d != %d", len(it.Tuple), arity)
		}
		if it.Count <= 0 {
			return fmt.Errorf("non-positive item count %d", it.Count)
		}
	}
	if gs.Distinct < 1 || gs.Distinct > len(gs.Items) {
		return fmt.Errorf("distinct count %d outside [1, %d]", gs.Distinct, len(gs.Items))
	}
	if len(gs.Levels) == 0 || len(gs.Resolutions) != len(gs.Levels) {
		return fmt.Errorf("%d levels with %d resolution rows", len(gs.Levels), len(gs.Resolutions))
	}
	for k, lvl := range gs.Levels {
		if len(lvl) == 0 {
			return fmt.Errorf("level %d is empty", k)
		}
		for _, ref := range lvl {
			if ref.Item < 0 || ref.Item >= len(gs.Items) || ref.Count <= 0 {
				return fmt.Errorf("level %d has a malformed row", k)
			}
		}
		if len(gs.Resolutions[k]) != arity {
			return fmt.Errorf("level %d resolution arity %d != %d", k, len(gs.Resolutions[k]), arity)
		}
	}
	return nil
}
