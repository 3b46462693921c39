package access

import (
	"runtime"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// This file implements the partition-owned storage engine behind a Ladder.
// Groups (one per distinct X-value) are hash-partitioned across N shards;
// each shard exclusively owns its groups' records of where their items
// (what incremental maintenance rebuilds a group's K-D tree from) sit in
// the ladder's item store and where their level views sit in the ladder's
// arena (block.go), so the online fetch path hands out shared read-only
// views. Scatter-gather
// batch fetches fan the distinct X-values of one query out across the
// shards, which is what lets a single query use multiple cores on the
// fetch side (ROADMAP "shard the database/ladders").
//
// Sharding is a pure storage concern: the partition of a group is a
// deterministic function of its X-value hash, every group lives in exactly
// one shard, and all ladder-level metadata (resolutions, MaxK, sizes) is
// aggregated over all shards. The shard count therefore never affects
// fetch results — asserted by TestShardCountInvariance against the
// single-shard ladder on the golden corpus.

// DefaultShards is the partition count ladders are built with when the
// caller does not choose one explicitly (BuildLadder, BuildAt, Extend).
// Zero means min(GOMAXPROCS, 8). It is read at build time only; set it
// before constructing access schemas (cmd/beasd does, from -shards).
var DefaultShards = 0

// maxDefaultShards caps the automatic shard count: beyond a handful of
// partitions the scatter-gather fan-out costs more than it buys.
const maxDefaultShards = 8

// resolveShards maps a requested shard count to an effective one.
func resolveShards(n int) int {
	if n > 0 {
		return n
	}
	if DefaultShards > 0 {
		return DefaultShards
	}
	n = runtime.GOMAXPROCS(0)
	if n > maxDefaultShards {
		n = maxDefaultShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ladderGroup is the storage of one X-group, exclusively owned by one shard:
// where its items sit in the ladder's item store — the raw Y-projections of
// its base tuples, duplicates kept, one row each, that incremental
// maintenance rebuilds from — and where its level views sit in the ladder's
// arena, each level a selection of those items by group-relative offset.
// The group's K-D tree lives only inside rebuild: the views are everything
// the fetch path and the snapshot need of it.
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

// ladderShard owns a disjoint subset of a ladder's groups.
type ladderShard struct {
	groups *relation.TupleMap[*ladderGroup]
}

// ShardedLadder is the partition-owned group store of a Ladder: groups are
// hash-partitioned by X-value across a fixed set of shards created at build
// time. Reads (FetchBlock, FetchBatchBlocks) are safe for concurrent use once built;
// mutation (put/remove, used by incremental maintenance) follows the same
// single-writer discipline as the rest of the access schema.
type ShardedLadder struct {
	shards []ladderShard
}

// newShardedLadder creates an empty store with n partitions (n ≥ 1 after
// resolveShards).
func newShardedLadder(n int) *ShardedLadder {
	s := &ShardedLadder{shards: make([]ladderShard, n)}
	for i := range s.shards {
		s.shards[i].groups = relation.NewTupleMap[*ladderGroup](0)
	}
	return s
}

// NumShards returns the partition count.
func (s *ShardedLadder) NumShards() int { return len(s.shards) }

// shardOf routes an X-value to its owning partition. The route depends only
// on the tuple's canonical hash, so it is stable across processes and
// independent of insertion order.
func (s *ShardedLadder) shardOf(x relation.Tuple) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(x.Hash() % uint64(len(s.shards)))
}

// group returns the group stored for x, if any.
func (s *ShardedLadder) group(x relation.Tuple) (*ladderGroup, bool) {
	return s.shards[s.shardOf(x)].groups.Get(x)
}

// put stores g in its owning shard.
func (s *ShardedLadder) put(g *ladderGroup) {
	s.shards[s.shardOf(g.key)].groups.Put(g.key, g)
}

// remove deletes the group for key, reporting whether one existed.
func (s *ShardedLadder) remove(key relation.Tuple) bool {
	return s.shards[s.shardOf(key)].groups.Delete(key)
}

// numGroups returns the total group count across shards.
func (s *ShardedLadder) numGroups() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].groups.Len()
	}
	return n
}

// rangeGroups calls f for every group until f returns false. Iteration
// order is unspecified, as with TupleMap.Range.
func (s *ShardedLadder) rangeGroups(f func(*ladderGroup) bool) {
	for i := range s.shards {
		stop := false
		s.shards[i].groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
			if !f(g) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}
