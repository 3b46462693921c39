package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/query"
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

// chAT's objective builds no trace: planBound over every plan of the
// corpus allocates nothing, and agrees with a traced bound run in
// planning mode.
func TestPlanBoundAllocatesNothing(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	plans := 0
	for ci, c := range corpus.Default() {
		p, err := s.PlanContext(context.Background(), c.Query, ExecOptions{Alpha: c.Alpha})
		if err != nil {
			continue // the planner rejects the case; nothing to bound
		}
		plans++
		drel, dcov := s.planBound(p, p.Expr)
		if tr, tc := s.boundRec(p, p.Expr, true, &BoundTrace{}); tr != drel || tc != dcov {
			t.Fatalf("case %d: untraced bound (%g, %g), traced (%g, %g)", ci, drel, dcov, tr, tc)
		}
		if n := testing.AllocsPerRun(10, func() { s.planBound(p, p.Expr) }); n != 0 {
			t.Fatalf("case %d: planBound allocates %v times per call\n%s", ci, n, query.Render(p.Expr))
		}
	}
	if plans == 0 {
		t.Fatal("no corpus case plans; the pin is vacuous")
	}
	t.Logf("%d corpus plans", plans)
}
