package access

import (
	"runtime"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// This file implements the partition-owned storage engine behind a Ladder.
// Groups (one per distinct X-value) are hash-partitioned across N shards;
// each shard exclusively owns its groups' tuple lists (what incremental
// maintenance rebuilds a group's K-D tree from) and materialised per-level
// sample views (so the online fetch path hands out shared read-only slices
// instead of rebuilding them per fetch). Scatter-gather
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
// the raw per-group tuple list (Y-projections of the base tuples, duplicates
// kept) that incremental maintenance rebuilds from, and the per-level sample
// views handed out by Fetch. The group's K-D tree lives only inside rebuild:
// the views are everything the fetch path and the snapshot need of it.
type ladderGroup struct {
	key   relation.Tuple
	items []kdtree.Item
	// levels[k] is the level-k fetch result, materialised once; the slices
	// and their tuples are shared and must be treated as read-only.
	levels [][]Sample
	// blocks[k] is the columnar form of levels[k], materialised in the same
	// pass and served by fetchBlock to the columnar executor path.
	blocks []*LevelBlock
	// resolutions[k] is the group's level-k per-attribute resolution (the
	// max of Rep.MaxDist over the level), accumulated while materialising
	// levels so ladder-level metadata refreshes never re-walk the trees.
	resolutions [][]float64
	// distinct is the group's distinct-Y count (kdtree.Tree.Items of the
	// built tree).
	distinct int
}

// exactLevel returns the level at which the group resolves exactly —
// kdtree.Tree.ExactLevel, derived from the materialised views.
func (g *ladderGroup) exactLevel() int { return len(g.levels) - 1 }

// rebuild reconstructs the level views from the tuple list: a K-D tree over
// the g items — O(g log g) per tree level, independent of |D| and of every
// other group — whose per-level sample views and resolutions are
// materialised in one pass, after which the tree is garbage.
func (g *ladderGroup) rebuild(yAttrs []relation.Attribute) {
	tree := kdtree.Build(yAttrs, g.items)
	g.distinct = tree.Items()
	all := tree.AllLevels()
	g.levels = make([][]Sample, len(all))
	g.resolutions = make([][]float64, len(all))
	total := 0
	attrs := 0
	for _, reps := range all {
		total += len(reps)
		if len(reps) > 0 {
			attrs = len(reps[0].MaxDist)
		}
	}
	// One backing array each for the sample views and the resolution rows:
	// group restoration is the warm path's bulk work, and per-level slices
	// would otherwise dominate its allocation count.
	backing := make([]Sample, total)
	resBacking := make([]float64, len(all)*attrs)
	off := 0
	for k, reps := range all {
		lvl := backing[off : off+len(reps) : off+len(reps)]
		off += len(reps)
		res := resBacking[k*attrs : (k+1)*attrs : (k+1)*attrs]
		for i, r := range reps {
			lvl[i] = Sample{Y: r.Point, Count: r.Count}
			for a, d := range r.MaxDist {
				if d > res[a] {
					res[a] = d
				}
			}
		}
		g.levels[k] = lvl
		g.resolutions[k] = res
	}
	g.blocks = buildLevelBlocks(g.levels, attrs)
}

// fetch returns the group's level-k samples as a shared read-only view.
// k is clamped to [0, exact level], matching kdtree.Tree.Level.
func (g *ladderGroup) fetch(k int) []Sample {
	if k < 0 {
		k = 0
	}
	if k >= len(g.levels) {
		k = len(g.levels) - 1
	}
	return g.levels[k]
}

// indexSize is the number of representatives materialised across all levels
// (the paper's Exp-4 storage metric, which the level views now literally are).
func (g *ladderGroup) indexSize() int {
	n := 0
	for _, lvl := range g.levels {
		n += len(lvl)
	}
	return n
}

// ladderShard owns a disjoint subset of a ladder's groups.
type ladderShard struct {
	groups *relation.TupleMap[*ladderGroup]
}

// ShardedLadder is the partition-owned group store of a Ladder: groups are
// hash-partitioned by X-value across a fixed set of shards created at build
// time. Reads (Fetch, FetchBlock, FetchBatchBlocks) are safe for concurrent use once built;
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

// Fetch returns the level-k samples of the group of x as a shared read-only
// view; nil when the group does not exist.
func (s *ShardedLadder) Fetch(x relation.Tuple, k int) []Sample {
	g, ok := s.group(x)
	if !ok {
		return nil
	}
	return g.fetch(k)
}
