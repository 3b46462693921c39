package access

import "repro/internal/relation"

// This file adds the columnar form of the materialised fetch views. Every
// ladder group keeps, next to its per-level []Sample views, a per-level
// LevelBlock: the level's Y-tuples stored column-wise (one flat typed slice
// per Y attribute) plus the parallel count annotations. The executor
// (internal/plan) fetches only these blocks and appends/evaluates them
// column-at-a-time. Both forms are materialised from the same tree pass (or
// snapshot restore), so they are row-for-row identical by construction;
// the []Sample views remain for the snapshot codec and Verify.

// LevelBlock is one fetch level in columnar form: row i of Y and Counts[i]
// together are exactly the level's Sample i. Blocks are shared read-only
// views, like the []Sample views Fetch returns.
type LevelBlock struct {
	// Y holds the level's sample tuples column-wise.
	Y *relation.Block
	// Counts holds the per-sample represented-tuple counts, aligned with Y's
	// rows.
	Counts []int
}

// Rows returns the number of samples in the level.
func (b *LevelBlock) Rows() int { return b.Y.Rows() }

// Prefix returns a read-only view of the first n samples — the columnar
// analogue of truncating a []Sample view to samples[:n] under a budget. A
// nil block (a missing group) stays nil.
func (b *LevelBlock) Prefix(n int) *LevelBlock {
	if b == nil || n >= b.Rows() {
		return b
	}
	return &LevelBlock{Y: b.Y.Prefix(n), Counts: b.Counts[:n]}
}

// buildLevelBlocks materialises the columnar form of each level view.
// arity is the Y arity; counts share one backing array across levels.
func buildLevelBlocks(levels [][]Sample, arity int) []*LevelBlock {
	total := 0
	for _, lvl := range levels {
		total += len(lvl)
	}
	countBacking := make([]int, 0, total)
	out := make([]*LevelBlock, len(levels))
	for k, lvl := range levels {
		blk := relation.NewBlock(arity)
		if len(lvl) > 0 {
			for j := 0; j < arity; j++ {
				blk.Col(j).Reserve(lvl[0].Y[j].Kind(), len(lvl))
			}
		}
		start := len(countBacking)
		for _, s := range lvl {
			blk.AppendTuple(s.Y)
			countBacking = append(countBacking, s.Count)
		}
		out[k] = &LevelBlock{Y: blk, Counts: countBacking[start:len(countBacking):len(countBacking)]}
	}
	return out
}

// fetchBlock returns the group's level-k samples in columnar form, with the
// same level clamping as fetch.
func (g *ladderGroup) fetchBlock(k int) *LevelBlock {
	if k < 0 {
		k = 0
	}
	if k >= len(g.blocks) {
		k = len(g.blocks) - 1
	}
	return g.blocks[k]
}

// FetchBlock returns the level-k samples of the group of x in columnar
// form; nil when the group does not exist. The block is a shared read-only
// view, row-for-row identical to what Fetch returns.
func (s *ShardedLadder) FetchBlock(x relation.Tuple, k int) *LevelBlock {
	g, ok := s.group(x)
	if !ok {
		return nil
	}
	return g.fetchBlock(k)
}

// minParallelBatch is the batch length below which FetchBatchBlocks looks
// every X-value up inline: a small batch costs less than the goroutine
// fan-out that would spread it.
const minParallelBatch = 64

// FetchBatchBlocks is the scatter-gather fetch: it resolves the level-k
// blocks for every X-value of xs, fanning the lookups out across the
// owning shards on up to `workers` goroutines, and gathers the results in
// input order (out[i] corresponds to xs[i]; nil for missing groups).
// Results are the shared read-only views FetchBlock returns. workers ≤ 1,
// a single shard, or a batch shorter than minParallelBatch all degrade to
// an inline loop with identical results.
func (s *ShardedLadder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	out := make([]*LevelBlock, len(xs))
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 || len(s.shards) == 1 || len(xs) < minParallelBatch {
		for i, x := range xs {
			out[i] = s.FetchBlock(x, k)
		}
		return out
	}
	// Scatter: partition the input indices by owning shard.
	byShard := make([][]int, len(s.shards))
	for i, x := range xs {
		si := s.shardOf(x)
		byShard[si] = append(byShard[si], i)
	}
	// Gather: one worker per non-empty shard (bounded), each writing only
	// its own output slots, so the result is independent of scheduling.
	var busy []int
	for si := range byShard {
		if len(byShard[si]) > 0 {
			busy = append(busy, si)
		}
	}
	parallelFor(len(busy), workers, func(bi int) {
		si := busy[bi]
		groups := s.shards[si].groups
		for _, i := range byShard[si] {
			if g, ok := groups.Get(xs[i]); ok {
				out[i] = g.fetchBlock(k)
			}
		}
	})
	return out
}

// FetchBlock returns the level-k samples for one X-value tuple in columnar
// form; nil when the X-value is not indexed. The block is a shared
// read-only view, row-for-row identical to Fetch's []Sample view.
func (l *Ladder) FetchBlock(x relation.Tuple, k int) *LevelBlock {
	return l.store.FetchBlock(x, k)
}

// FetchBatchBlocks resolves many X-values at once in columnar form,
// scatter-gathering across the store's shards; out[i] corresponds to xs[i].
func (l *Ladder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	return l.store.FetchBatchBlocks(xs, k, workers)
}
