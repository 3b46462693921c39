package plan

import (
	"context"

	"repro/internal/access"
	"repro/internal/relation"
)

// RemoteFetcher resolves the batched ladder fetch of every fetch step. The
// in-process lookup (localFetcher, the default) and the cluster
// router (internal/cluster) are its two implementations; the executor
// cannot tell them apart. The contract mirrors access.Ladder.FetchBatchBlocks
// exactly: out[i] corresponds to xs[i] (nil for missing groups), every
// returned view is the group's FULL untruncated level, and the returned
// slice belongs to the caller — budget accounting and truncation stay with
// the executor, sequential in first-seen enumeration order, which is what
// keeps N-node execution byte-identical to the in-process path. xs and its
// tuples are the executor's run scratch: a fetcher reads them during the
// call and keeps none of them after it returns.
//
// A fetcher must return row-for-row the same samples the ladder itself
// would (TestClusterInvariance asserts this over the soundness corpus). A
// fetch that cannot be completed — a peer down, a corrupt frame — must
// surface as a typed error, never as silently missing data: the executor
// aborts the plan rather than answer from a partial view.
type RemoteFetcher interface {
	// FetchBatchBlocks resolves the level-k views for every X-value of xs,
	// in xs order: one level block per X-value, nil for missing groups.
	FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error)
}

// localFetcher resolves batches in process, from the ladder's own group map.
type localFetcher struct{}

// FetchBatchBlocks implements RemoteFetcher; it never fails.
func (localFetcher) FetchBatchBlocks(_ context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	return l.FetchBatchBlocks(xs, k, 1), nil
}
