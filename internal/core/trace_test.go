package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/chase"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/plan"
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

// Neither chAT's objective nor generation's bound builds a trace: planBound
// and the untraced bound over every plan of the corpus allocate nothing
// (0 allocations per call), and planBound agrees with a traced bound run
// in planning mode.
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
		if n := testing.AllocsPerRun(10, func() { s.bound(p, p.Expr) }); n != 0 {
			t.Fatalf("case %d: generation's untraced bound allocates %v times per call\n%s", ci, n, query.Render(p.Expr))
		}
	}
	if plans == 0 {
		t.Fatal("no corpus case plans; the pin is vacuous")
	}
	t.Logf("%d corpus plans", plans)
}

// HasRule reports whether any recorded step applied the rule. The
// soundness suite uses it to pin the rule behind a bound (an inexact
// plan's void coverage comes from RuleJoinCoverageVoid).
func (tr *BoundTrace) HasRule(rule BoundRule) bool {
	if tr == nil {
		return false
	}
	for _, st := range tr.Steps {
		if st.Rule == rule {
			return true
		}
	}
	return false
}

// referenceGenerationTrace generates a plan for e the way generation did
// when every plan carried its bound trace: the chase and chAT as usual,
// then L's bound derived by a traced boundRec, the exactness step and the
// final decomposition recorded as generation produced them.
func referenceGenerationTrace(t *testing.T, s *Scheme, e query.Expr, alpha float64) *BoundTrace {
	t.Helper()
	budget := int(alpha * float64(s.db.Size()))
	sch, leaves, err := query.Validate(e, s.db)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{Expr: e, Alpha: alpha, Budget: budget, schema: sch}
	for _, leaf := range leaves {
		res, err := chase.ChaseResolved(leaf, s.as, budget/len(leaves))
		if err != nil {
			t.Fatal(err)
		}
		p.Leaves = append(p.Leaves, &LeafPlan{SPC: leaf.Q, Bounded: plan.NewBounded(res, budget)})
	}
	s.chAT(p)
	tr := &BoundTrace{}
	tr.DRel, tr.DCov = s.boundRec(p, e, false, tr)
	tr.Eta = etaOf(tr.DRel, tr.DCov)
	if s.isExact(p) {
		tr.Eta = 1
		tr.add(BoundStep{
			Rule: RuleExact, Leaf: -1, Subject: "plan", Eta: 1,
			Note: "every used attribute resolves at resolution 0: the plan computes exact answers",
		})
	} else if g, ok := e.(*query.GroupBy); ok && g.Agg != query.AggMin && g.Agg != query.AggMax {
		tr.Eta = 0
	}
	return tr
}

// The bound trace ExplainEta builds on request over a finished plan is the
// trace a traced boundRec records while generating it: every step (rule,
// leaf, subject, inputs, candidates, η override, note) and the final
// decomposition, over the randomized and edge-shape corpora at three α.
// The answer's trace starts with exactly those steps, and the untraced
// bound of generation agrees bit for bit with the traced one.
func TestExplainTraceMatchesGenerationTrace(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	edb := corpus.EdgeDB()
	eas, err := fixture.SchemaA0(edb)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		s *Scheme
		q query.Expr
	}
	var cases []tc
	for _, c := range corpus.Default() {
		cases = append(cases, tc{New(db, as), c.Query})
	}
	for _, c := range corpus.EdgeCases() {
		cases = append(cases, tc{New(edb, eas), c.Query})
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	steps := 0
	for ci, c := range cases {
		for _, alpha := range []float64{0.01, 0.1, 0.6} {
			o := ExecOptions{Alpha: alpha, ExplainEta: true}
			p, err := c.s.PlanContext(context.Background(), c.q, o)
			if err != nil {
				continue // the planner rejects the case; nothing to trace
			}
			want := referenceGenerationTrace(t, c.s, c.q, alpha)
			got := c.s.boundTrace(p)
			where := fmt.Sprintf("case %d at alpha %g: %s", ci, alpha, query.Render(c.q))
			if !same(got.DRel, want.DRel) || !same(got.DCov, want.DCov) || !same(got.Eta, want.Eta) {
				t.Fatalf("%s: on request (drel %g, dcov %g, eta %g), at generation (%g, %g, %g)",
					where, got.DRel, got.DCov, got.Eta, want.DRel, want.DCov, want.Eta)
			}
			if !reflect.DeepEqual(got.Steps, want.Steps) {
				t.Fatalf("%s: steps differ\non request:\n%s\nat generation:\n%s", where, got, want)
			}
			ans, err := c.s.ExecuteContext(context.Background(), p, o)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if len(ans.Trace.Steps) < len(want.Steps) || !reflect.DeepEqual(ans.Trace.Steps[:len(want.Steps)], want.Steps) {
				t.Fatalf("%s: the answer's trace does not start with the generation trace\n%s", where, ans.Trace)
			}
			if !same(ans.Trace.DRel, want.DRel) || !same(ans.Trace.DCov, want.DCov) || ans.Trace.Eta != ans.Eta {
				t.Fatalf("%s: answer trace (drel %g, dcov %g, eta %g), want (%g, %g, %g)",
					where, ans.Trace.DRel, ans.Trace.DCov, ans.Trace.Eta, want.DRel, want.DCov, ans.Eta)
			}
			steps += len(want.Steps)
		}
	}
	if steps == 0 {
		t.Fatal("no traced step compared; the test is vacuous")
	}
	t.Logf("%d cases, %d steps compared", len(cases), steps)
}
