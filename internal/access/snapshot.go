package access

import (
	"fmt"
	"sort"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// This file implements the portable form of a ladder, the unit the
// persistence layer (internal/persist) writes to disk: per group, the
// X-key, the raw tuple list (what incremental maintenance mutates), the
// materialised per-level []Sample fetch views and per-level resolutions
// (what the online path serves from), and the distinct-Y count. Kd-tree
// STRUCTURE is deliberately not serialised: the fetch path never touches a
// tree, only the views made from one, and the first maintenance operation on
// a restored group rebuilds its views from the tuple list deterministically
// — so restoring is a linear pass with byte-identical Fetch results, and a
// snapshot stays a flat, checkable artifact.

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
	// Levels are the materialised per-level fetch views, exactly as the
	// group serves them. Sample tuples are shared with Items.
	Levels [][]Sample
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
// tuples and view slices are shared with the live ladder and must be
// treated as read-only; take the snapshot under the same single-writer
// discipline as maintenance.
func (l *Ladder) Snapshot() LadderSnapshot {
	snap := LadderSnapshot{
		RelName: l.RelName,
		X:       append([]string(nil), l.X...),
		Y:       append([]string(nil), l.Y...),
		Shards:  l.store.NumShards(),
	}
	l.store.rangeGroups(func(g *ladderGroup) bool {
		snap.Groups = append(snap.Groups, GroupSnapshot{
			Key:         g.key,
			Items:       g.items,
			Distinct:    g.distinct,
			Levels:      g.levels,
			Resolutions: g.resolutions,
		})
		return true
	})
	sort.Slice(snap.Groups, func(i, j int) bool {
		return snap.Groups[i].Key.Key() < snap.Groups[j].Key.Key()
	})
	return snap
}

// RestoreLadder rebuilds a ladder from its snapshot against the database the
// snapshot was taken over. Groups are re-partitioned across `shards` shards
// (0 keeps the snapshot's count) — partitioning is a deterministic function
// of the X-value hash, so the shard count never changes what Fetch returns.
// No kd-tree is built: the fetch path serves the snapshot's materialised
// views, byte-identical to the original ladder's, and a group is rebuilt
// from its tuple list on its first maintenance touch. Structural
// problems (unknown relation or attributes, malformed groups) are reported
// as errors, never panics.
func RestoreLadder(db *relation.Database, snap LadderSnapshot, shards int) (*Ladder, error) {
	if shards <= 0 {
		shards = snap.Shards
	}
	l, _, err := newLadder(db, snap.RelName, snap.X, snap.Y, resolveShards(shards))
	if err != nil {
		return nil, fmt.Errorf("access: restore: %w", err)
	}

	for gi := range snap.Groups {
		gs := &snap.Groups[gi]
		if err := validGroup(gs, len(l.yAttrs)); err != nil {
			return nil, fmt.Errorf("access: restore %s group %v: %w", snap.RelName, gs.Key, err)
		}
		l.store.put(&ladderGroup{
			key:         gs.Key,
			items:       gs.Items,
			levels:      gs.Levels,
			blocks:      buildLevelBlocks(gs.Levels, len(l.yAttrs)),
			resolutions: gs.Resolutions,
			distinct:    gs.Distinct,
		})
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
		for _, s := range lvl {
			if len(s.Y) != arity || s.Count <= 0 {
				return fmt.Errorf("level %d has a malformed sample", k)
			}
		}
		if len(gs.Resolutions[k]) != arity {
			return fmt.Errorf("level %d resolution arity %d != %d", k, len(gs.Resolutions[k]), arity)
		}
	}
	return nil
}
