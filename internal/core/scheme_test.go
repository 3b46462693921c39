package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

func setup(t testing.TB) (*Scheme, *relation.Database) {
	t.Helper()
	db := fixture.Example1(11, 80, 600)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatalf("SchemaA0: %v", err)
	}
	return New(db, as), db
}

func TestGeneratePlanValidatesAlpha(t *testing.T) {
	s, _ := setup(t)
	if _, err := s.PlanContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: 0}); err == nil {
		t.Error("alpha 0 must be rejected")
	}
	if _, err := s.PlanContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 must be rejected")
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	s, db := setup(t)
	for _, alpha := range []float64{0.01, 0.05, 0.2} {
		p, err := s.PlanContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: alpha})
		if err != nil {
			t.Fatalf("PlanContext(%g): %v", alpha, err)
		}
		ans, err := s.ExecuteContext(context.Background(), p, ExecOptions{})
		if err != nil {
			t.Fatalf("ExecuteContext: %v", err)
		}
		if ans.Stats.Accessed > p.Budget {
			t.Errorf("alpha=%g: accessed %d > budget %d", alpha, ans.Stats.Accessed, p.Budget)
		}
		_ = db
	}
}

// Theorem 5 / 6(1): the realised RC accuracy is at least the bound η.
func TestEtaIsSoundLowerBound(t *testing.T) {
	s, db := setup(t)
	queries := []query.Expr{
		fixture.Q1(3, 95),
		fixture.Q2(3),
		&query.Union{L: fixture.Q1(3, 95), R: fixture.Q1(5, 120)},
		&query.Diff{L: fixture.Q1(3, 200), R: fixture.Q1(3, 95)},
	}
	for qi, q := range queries {
		for _, alpha := range []float64{0.02, 0.1, 0.5} {
			ans, p, err := s.AnswerContext(context.Background(), q, ExecOptions{Alpha: alpha})
			if err != nil {
				t.Fatalf("query %d alpha %g: %v", qi, alpha, err)
			}
			ev, err := accuracy.NewEvaluator(db, q)
			if err != nil {
				t.Fatalf("NewEvaluator: %v", err)
			}
			rep := ev.RC(ans.Rel)
			if rep.Accuracy+1e-9 < ans.Eta {
				t.Errorf("query %d alpha %g: accuracy %.4f < eta %.4f (plan eta %.4f, exact=%v)",
					qi, alpha, rep.Accuracy, ans.Eta, p.Eta, ans.Exact)
			}
		}
	}
}

// Theorem 5(3) / 6(4): larger alpha gives a (weakly) higher bound.
func TestEtaMonotoneInAlpha(t *testing.T) {
	s, _ := setup(t)
	prev := -1.0
	for _, alpha := range []float64{0.01, 0.03, 0.1, 0.3, 1.0} {
		p, err := s.PlanContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: alpha})
		if err != nil {
			t.Fatalf("PlanContext: %v", err)
		}
		if p.Eta < prev-1e-9 {
			t.Errorf("eta decreased: alpha=%g eta=%.4f < previous %.4f", alpha, p.Eta, prev)
		}
		prev = p.Eta
	}
}

func TestQ2ExactUnderTinyAlpha(t *testing.T) {
	s, db := setup(t)
	// Q2 is boundedly evaluable: a small constant budget suffices no
	// matter |D| (paper Example 1(2)).
	alpha := 100.0 / float64(db.Size())
	ans, p, err := s.AnswerContext(context.Background(), fixture.Q2(3), ExecOptions{Alpha: alpha})
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if !p.Exact || !ans.Exact || ans.Eta != 1 {
		t.Errorf("Q2 should be exact: plan=%v ans=%v eta=%g", p.Exact, ans.Exact, ans.Eta)
	}
	exact, err := query.EvaluateSet(db, fixture.Q2(3))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rel.Len() != exact.Len() {
		t.Errorf("Q2 answers = %d, exact = %d", ans.Rel.Len(), exact.Len())
	}
}

func TestExactAtAlphaOne(t *testing.T) {
	s, db := setup(t)
	ans, p, err := s.AnswerContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: 1.0})
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if !p.Exact || ans.Eta != 1 {
		t.Errorf("alpha=1 should give exact answers (eta=%g)", ans.Eta)
	}
	exact, err := query.EvaluateSet(db, fixture.Q1(3, 95))
	if err != nil {
		t.Fatal(err)
	}
	got, want := ans.Rel.Distinct(), exact
	if got.Len() != want.Len() {
		t.Errorf("answers = %d, exact = %d", got.Len(), want.Len())
	}
	for _, tp := range want.Tuples {
		if !slices.ContainsFunc(got.Tuples, tp.EqualTuple) {
			t.Errorf("missing exact answer %v", tp)
		}
	}
}

// Theorem 6(5): set difference is strictly enforced — no tuple of Q2(D)
// appears in the answers, even under approximation.
func TestDiffSemanticsEnforced(t *testing.T) {
	s, db := setup(t)
	q := &query.Diff{L: fixture.Q1(3, 200), R: fixture.Q1(3, 95)}
	rhsExact, err := query.EvaluateSet(db, fixture.Q1(3, 95))
	if err != nil {
		t.Fatal(err)
	}
	rhsKeys := map[string]bool{}
	for _, tp := range rhsExact.Tuples {
		rhsKeys[tp.Key()] = true
	}
	for _, alpha := range []float64{0.02, 0.1, 0.5, 1.0} {
		ans, _, err := s.AnswerContext(context.Background(), q, ExecOptions{Alpha: alpha})
		if err != nil {
			t.Fatalf("alpha %g: %v", alpha, err)
		}
		for _, tp := range ans.Rel.Tuples {
			if rhsKeys[tp.Key()] {
				t.Errorf("alpha %g: answer %v is in Q2(D)", alpha, tp)
			}
		}
	}
}

func TestUnionCombines(t *testing.T) {
	s, db := setup(t)
	q := &query.Union{L: fixture.Q2(3), R: fixture.Q2(5)}
	ans, p, err := s.AnswerContext(context.Background(), q, ExecOptions{Alpha: 0.5})
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if p.Class != query.ClassRA {
		t.Errorf("class = %v", p.Class)
	}
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exact && ans.Rel.Len() != exact.Len() {
		t.Errorf("union answers = %d, exact = %d", ans.Rel.Len(), exact.Len())
	}
}

// A query that holds one SPC twice plans it as one leaf: q ∪ q fetches and
// charges q once, and answers exactly as q does, with an η no lower.
func TestRepeatedLeafPlannedOnce(t *testing.T) {
	s, _ := setup(t)
	ctx := context.Background()
	q := fixture.Q1(3, 95)
	for _, alpha := range []float64{0.05, 0.5} {
		o := ExecOptions{Alpha: alpha, BypassCache: true}
		want, _, err := s.AnswerContext(ctx, q, o)
		if err != nil {
			t.Fatal(err)
		}
		got, p, err := s.AnswerContext(ctx, &query.Union{L: q, R: q}, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Leaves) != 1 {
			t.Fatalf("alpha %g: q ∪ q planned as %d leaves, want 1", alpha, len(p.Leaves))
		}
		if got.Stats != want.Stats {
			t.Errorf("alpha %g: q ∪ q read %+v, q alone %+v", alpha, got.Stats, want.Stats)
		}
		if !slices.Equal(relKeys(got.Rel), relKeys(want.Rel)) {
			t.Errorf("alpha %g: q ∪ q answered %d rows, q alone %d", alpha, got.Rel.Len(), want.Rel.Len())
		}
		if got.Eta < want.Eta {
			t.Errorf("alpha %g: q ∪ q has eta %g below q's %g", alpha, got.Eta, want.Eta)
		}
	}
}

func TestGroupByCountScalesWithWeights(t *testing.T) {
	s, db := setup(t)
	// Count all POIs per type: under At at any level, the weighted count
	// must equal |poi| in total (counts are annotations, not samples).
	g := &query.GroupBy{
		In: &query.SPC{
			Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
			Output: []query.Col{query.C("h", "type"), query.C("h", "price")},
		},
		Keys: []query.Col{query.C("h", "type")},
		Agg:  query.AggCount,
		On:   query.C("h", "price"),
		As:   "cnt",
	}
	for _, alpha := range []float64{0.02, 0.2, 1.0} {
		ans, _, err := s.AnswerContext(context.Background(), g, ExecOptions{Alpha: alpha})
		if err != nil {
			t.Fatalf("Answer(%g): %v", alpha, err)
		}
		total := int64(0)
		for _, tp := range ans.Rel.Tuples {
			c, _ := tp[len(tp)-1].AsInt()
			total += c
		}
		if total != int64(db.MustRelation("poi").Len()) {
			t.Errorf("alpha %g: weighted counts sum to %d, want %d", alpha, total, db.MustRelation("poi").Len())
		}
	}
}

func TestGroupByMinMaxExactAtFullBudget(t *testing.T) {
	s, db := setup(t)
	g := &query.GroupBy{
		In: &query.SPC{
			Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
			Preds:  []query.Pred{query.EqC(query.C("h", "type"), relation.String("hotel"))},
			Output: []query.Col{query.C("h", "city"), query.C("h", "price")},
		},
		Keys: []query.Col{query.C("h", "city")},
		Agg:  query.AggMin,
		On:   query.C("h", "price"),
		As:   "minp",
	}
	ans, p, err := s.AnswerContext(context.Background(), g, ExecOptions{Alpha: 1.0})
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if !p.Exact {
		t.Fatal("alpha=1 aggregate plan should be exact")
	}
	exact, err := query.Evaluate(db, g)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rel.Len() != exact.Len() {
		t.Fatalf("groups = %d, want %d", ans.Rel.Len(), exact.Len())
	}
	want := map[string]float64{}
	for _, tp := range exact.Tuples {
		c, _ := tp[0].AsString()
		v, _ := tp[1].AsFloat()
		want[c] = v
	}
	for _, tp := range ans.Rel.Tuples {
		c, _ := tp[0].AsString()
		v, _ := tp[1].AsFloat()
		if math.Abs(want[c]-v) > 1e-9 {
			t.Errorf("min(%s) = %g, want %g", c, v, want[c])
		}
	}
}

func TestMinBudgetExact(t *testing.T) {
	s, db := setup(t)
	b, err := s.MinBudgetExact(fixture.Q2(3))
	if err != nil {
		t.Fatalf("MinBudgetExact: %v", err)
	}
	if b <= 0 || b > db.Size() {
		t.Fatalf("budget = %d out of range", b)
	}
	// Q2 is boundedly evaluable: the budget should be far below |D|.
	if b > db.Size()/4 {
		t.Errorf("Q2 exact budget = %d, want small fraction of |D|=%d", b, db.Size())
	}
	alpha, err := s.MinAlphaExact(fixture.Q2(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-float64(b)/float64(db.Size())) > 1e-12 {
		t.Errorf("MinAlphaExact inconsistent: %g vs %d/%d", alpha, b, db.Size())
	}
	// Verify the found budget really is exact and budget-1 is not (when > 1).
	p, err := s.generateWithBudget(context.Background(), fixture.Q2(3), float64(b)/float64(db.Size()), b)
	if err != nil || !p.Exact {
		t.Errorf("plan at MinBudgetExact not exact: %v", err)
	}
}

func TestAggregateEtaSound(t *testing.T) {
	s, db := setup(t)
	g := &query.GroupBy{
		In: &query.SPC{
			Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
			Preds:  []query.Pred{query.EqC(query.C("h", "type"), relation.String("hotel"))},
			Output: []query.Col{query.C("h", "city"), query.C("h", "price")},
		},
		Keys: []query.Col{query.C("h", "city")},
		Agg:  query.AggMax,
		On:   query.C("h", "price"),
		As:   "maxp",
	}
	for _, alpha := range []float64{0.05, 0.3, 1.0} {
		ans, _, err := s.AnswerContext(context.Background(), g, ExecOptions{Alpha: alpha})
		if err != nil {
			t.Fatalf("Answer: %v", err)
		}
		ev, err := accuracy.NewEvaluator(db, g)
		if err != nil {
			t.Fatal(err)
		}
		rep := ev.RC(ans.Rel)
		if rep.Accuracy+1e-9 < ans.Eta {
			t.Errorf("alpha %g: max-aggregate accuracy %.4f < eta %.4f", alpha, rep.Accuracy, ans.Eta)
		}
	}
}
