package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// A traced run attributes every batch to its fetch step: each fetch_step
// span carries the distinct X-values the step looked up (xs) and the
// full-level rows they returned before budget accounting (samples, never
// fewer than the rows the step was charged), and the batch resolves inline
// under the step, so no per-partition child span exists.
func TestFetchStepSpansCarryBatch(t *testing.T) {
	s, q, opt := cancelFixture(t)
	opt.Trace = obs.NewTrace("query")
	if _, _, err := s.AnswerContext(context.Background(), q, opt); err != nil {
		t.Fatal(err)
	}
	steps := 0
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		switch sp.Name() {
		case "shard":
			t.Errorf("trace has a shard span\n%s", opt.Trace)
		case "fetch_step":
			steps++
			attrs := map[string]int64{}
			for _, a := range sp.Attrs() {
				if v, ok := a.Val.(int64); ok {
					attrs[a.Key] = v
				}
			}
			xs, hasXs := attrs["xs"]
			samples, hasSamples := attrs["samples"]
			if !hasXs || !hasSamples {
				t.Errorf("fetch_step span lacks xs or samples: %v", sp.Attrs())
			}
			if xs < 1 || samples < attrs["accessed"] {
				t.Errorf("fetch_step span: xs=%d samples=%d accessed=%d", xs, samples, attrs["accessed"])
			}
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(opt.Trace.Root())
	if steps == 0 {
		t.Fatalf("traced run has no fetch_step span\n%s", opt.Trace)
	}
}
