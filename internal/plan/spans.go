package plan

import (
	"context"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/relation"
)

// shardSpans opens one "shard" child span per store shard the batch's
// X-values route to, under the span carried on ctx. The returned closer
// annotates each span with its xs and samples counts (from the resolved
// batch, lvls[i] answering xs[i]) and ends them. The shards are fetched
// concurrently inside one scatter-gather call, so the spans share the
// fan-out window as their duration; the per-shard attribution lives in the
// attrs. With tracing disabled (no ctx span) the whole thing is a nil check
// and a no-op closer.
func shardSpans(ctx context.Context, l *access.Ladder, xs []relation.Tuple) func(lvls []*access.LevelBlock) {
	sp := obs.SpanFrom(ctx)
	if sp == nil || len(xs) == 0 {
		return func([]*access.LevelBlock) {}
	}
	spans := map[int]*obs.Span{}
	xsBy := map[int]int{}
	for _, x := range xs {
		si := l.ShardOf(x)
		xsBy[si]++
		if _, ok := spans[si]; !ok {
			s := sp.Child("shard")
			s.SetInt("shard", int64(si))
			spans[si] = s
		}
	}
	return func(lvls []*access.LevelBlock) {
		samplesBy := map[int]int{}
		for i, x := range xs {
			if lvls[i] != nil {
				samplesBy[l.ShardOf(x)] += lvls[i].Rows()
			}
		}
		for si, s := range spans {
			s.SetInt("xs", int64(xsBy[si]))
			s.SetInt("samples", int64(samplesBy[si]))
			s.End()
		}
	}
}
