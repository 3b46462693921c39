package plan

import (
	"context"
	"math"

	"repro/internal/relation"
)

// Scratch exposes a run's working memory to the isolation tests.
type Scratch = runScratch

// NewScratch returns a freshly allocated scratch, as the pool makes them.
func NewScratch() *Scratch { return new(runScratch) }

// ExecuteOn is ExecuteOpts on sc instead of a pooled scratch.
func ExecuteOn(ctx context.Context, p *Bounded, db *relation.Database, o ExecOpts, sc *Scratch) (*Result, error) {
	return executeOn(ctx, p, o, sc)
}

// Poison overwrites every buffer of the scratch, to its full capacity,
// with sentinel values: whatever an earlier run's answer still shared with
// the scratch would change.
func (sc *Scratch) Poison() {
	for _, a := range sc.outs {
		poisonBlock(a.block)
		poisonSlice(a.weights, math.MinInt)
	}
	for i := range sc.envs {
		poisonBlock(&sc.envs[i].block)
		poisonSlice(sc.envs[i].w, math.MinInt)
	}
	for i := range sc.ext {
		poisonSlice(sc.ext[i].rows, math.MinInt32)
	}
	bad := relation.String("\x00poison")
	poisonSlice(sc.slab, bad)
	poisonSlice(sc.fill, bad)
	poisonSlice(sc.x, bad)
	poisonSlice(sc.xs, relation.Tuple{bad})
	poisonSlice(sc.visits, stepVisit{x: math.MinInt32, ri: math.MinInt32, w: math.MinInt})
	for _, s := range [][]int32{sc.sel, sc.eIdx, sc.aIdx, sc.join.head, sc.join.tail, sc.join.next, sc.join.rows} {
		poisonSlice(s, math.MinInt32)
	}
	poisonSlice(sc.atomKey, math.MinInt)
	poisonSlice(sc.envKey, math.MinInt)
}

// poisonSlice sets every element of s up to its capacity to v.
func poisonSlice[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poisonBlock overwrites the rows of b in every payload kind.
func poisonBlock(b *relation.Block) {
	w, n := b.Width(), b.Rows()
	for _, v := range []relation.Value{relation.Int(math.MinInt64), relation.Float(-math.MaxFloat64), relation.String("\x00poison")} {
		b.Reset(w)
		for j := 0; j < w; j++ {
			b.Col(j).AppendRepeat(v, n)
		}
		b.AddRows(n)
	}
}
