package plan

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/chase"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

func setup(t testing.TB) (*relation.Database, *access.Schema) {
	t.Helper()
	db := fixture.Example1(7, 60, 400)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatalf("SchemaA0: %v", err)
	}
	return db, as
}

// execute runs p with its own budget through the executor entry point,
// sequentially.
func execute(p *Bounded, db *relation.Database) (*Result, error) {
	return ExecuteOpts(context.Background(), p, db, DefaultExecOpts(p.Budget, 1))
}

func mustChase(t testing.TB, q *query.SPC, as *access.Schema, db *relation.Database, budget int) *chase.Result {
	t.Helper()
	res, err := chase.Chase(q, as, db, budget)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	return res
}

// attrIdx maps an attribute name of atom to its index in the atom's base
// schema, the column currency of chase results and plans.
func attrIdx(leaf *query.Resolved, atom int, name string) int {
	return leaf.Bases[atom].MustIndex(name)
}

func asSet(r *relation.Relation) map[string]bool {
	out := map[string]bool{}
	for _, t := range r.Distinct().Tuples {
		out[t.Key()] = true
	}
	return out
}

func TestExecuteQ2Exact(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q2(3)
	budget := 500
	res := mustChase(t, q, as, db, budget)
	if !res.AllExact {
		t.Fatal("Q2 should chase exactly")
	}
	out, err := execute(NewBounded(res, budget), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatalf("EvaluateSet: %v", err)
	}
	got, want := asSet(out.Rel), asSet(exact)
	if len(got) != len(want) {
		t.Fatalf("Q2 plan answers = %d, exact = %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing exact answer %q", k)
		}
	}
	if out.Stats.Accessed > budget {
		t.Errorf("accessed %d > budget %d", out.Stats.Accessed, budget)
	}
	if out.Stats.Truncated {
		t.Error("exact plan should not truncate")
	}
}

func TestExecuteQ1ExactWhenBudgetLarge(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q1(3, 95)
	budget := db.Size() * 10
	res := mustChase(t, q, as, db, budget)
	out, err := execute(NewBounded(res, budget), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatalf("EvaluateSet: %v", err)
	}
	got, want := asSet(out.Rel), asSet(exact)
	for k := range want {
		if !got[k] {
			t.Errorf("exact plan missing answer %q", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("exact plan has spurious answer %q", k)
		}
	}
}

// The defining property of a bounded query plan (§2.2): when every template
// is upgraded to resolution 0̄, the plan computes exact answers.
func TestPlanDefinitionUpgradedToExact(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q1(3, 95)
	res := mustChase(t, q, as, db, 40) // tight budget: approximate plan
	p := NewBounded(res, db.Size()*10)
	for si := range res.Steps {
		if !res.Steps[si].Pinned {
			p.SetLevel(si, res.Steps[si].Ladder.MaxK())
		}
	}
	out, err := execute(p, db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatalf("EvaluateSet: %v", err)
	}
	got, want := asSet(out.Rel), asSet(exact)
	for k := range want {
		if !got[k] {
			t.Errorf("upgraded plan missing exact answer %q", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("upgraded plan has spurious answer %q", k)
		}
	}
}

func TestApproximatePlanCoversExactAnswers(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q1(3, 95)
	budget := 60
	res := mustChase(t, q, as, db, budget)
	out, err := execute(NewBounded(res, budget), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if out.Stats.Accessed > budget {
		t.Fatalf("accessed %d > budget %d", out.Stats.Accessed, budget)
	}
	// Every exact answer must be within the fetch resolution of some
	// approximate answer (the coverage half of the RC guarantee).
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatalf("EvaluateSet: %v", err)
	}
	if exact.Len() == 0 {
		t.Skip("no exact answers for this seed")
	}
	p := NewBounded(res, budget)
	// Tolerance: max resolution across output columns.
	tol := 0.0
	for _, c := range q.Output {
		atom := map[string]int{"h": 0, "f": 1, "p": 2}[c.Rel]
		if r := p.Resolution(atom, attrIdx(p.Chase.Leaf, atom, c.Attr)); r > tol {
			tol = r
		}
	}
	attrs := exact.Schema.Attrs
	for _, et := range exact.Tuples {
		best := -1.0
		for _, st := range out.Rel.Tuples {
			d := relation.TupleDistance(attrs, et, st)
			if best < 0 || d < best {
				best = d
			}
		}
		if best < 0 || best > tol+1e-9 {
			t.Errorf("exact answer %v not covered: nearest %g > tol %g", et, best, tol)
		}
	}
}

func TestBudgetTruncation(t *testing.T) {
	db, as := setup(t)
	// Pick a person with at least 3 friends so the first fetch alone
	// exceeds the runtime budget.
	friend := db.MustRelation("friend")
	counts := map[int64]int{}
	for _, tp := range friend.Tuples {
		pid, _ := tp[0].AsInt()
		counts[pid]++
	}
	var p0 int64 = -1
	for pid, n := range counts {
		if n >= 3 {
			p0 = pid
			break
		}
	}
	if p0 < 0 {
		t.Fatal("fixture has no person with 3 friends")
	}
	q := fixture.Q2(p0)
	res := mustChase(t, q, as, db, 500)
	// Execute with an absurdly small runtime budget: must truncate, not
	// overrun.
	out, err := execute(NewBounded(res, 2), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if out.Stats.Accessed > 2 {
		t.Errorf("accessed %d > runtime budget 2", out.Stats.Accessed)
	}
	if !out.Stats.Truncated {
		t.Error("expected truncation")
	}
}

func TestWeightsSingleAtomCount(t *testing.T) {
	db := fixture.Example1(7, 10, 100)
	as, err := access.BuildAt(db)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	// select type from poi — fetched via At at k=0: one representative
	// whose weight is the whole relation.
	q := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
		Output: []query.Col{query.C("h", "type")},
	}
	res := mustChase(t, q, as, db, 1)
	out, err := execute(NewBounded(res, 1), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if out.Rel.Len() != 1 {
		t.Fatalf("k=0 fetch rows = %d, want 1", out.Rel.Len())
	}
	if out.Weights[0] != 100 {
		t.Errorf("representative weight = %d, want 100", out.Weights[0])
	}
}

func TestWeightsSumPreservedAcrossLevels(t *testing.T) {
	db := fixture.Example1(7, 10, 128)
	as, err := access.BuildAt(db)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	q := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
		Output: []query.Col{query.C("h", "price")},
	}
	res := mustChase(t, q, as, db, 1)
	for _, k := range []int{0, 2, 4} {
		p := NewBounded(res, 1<<uint(k))
		for si := range res.Steps {
			if !res.Steps[si].Pinned {
				p.SetLevel(si, k)
			}
		}
		out, err := execute(p, db)
		if err != nil {
			t.Fatalf("execute k=%d: %v", k, err)
		}
		sum := 0
		for _, w := range out.Weights {
			sum += w
		}
		if sum != 128 {
			t.Errorf("k=%d: weight sum = %d, want 128", k, sum)
		}
	}
}

func TestTariffUpperBoundsAccess(t *testing.T) {
	db, as := setup(t)
	for _, budget := range []int{30, 100, 1000} {
		q := fixture.Q1(3, 95)
		res := mustChase(t, q, as, db, budget)
		p := NewBounded(res, budget)
		est := p.Tariff()
		out, err := execute(p, db)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if out.Stats.Accessed > est {
			t.Errorf("budget %d: accessed %d > tariff estimate %d", budget, out.Stats.Accessed, est)
		}
	}
}

func TestEmptyAnswerOnMissingKey(t *testing.T) {
	db, as := setup(t)
	// A pid that does not exist: exact plan, empty result.
	q := fixture.Q2(999999)
	res := mustChase(t, q, as, db, 500)
	out, err := execute(NewBounded(res, 500), db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if out.Rel.Len() != 0 {
		t.Errorf("expected empty answers, got %v", out.Rel.Tuples)
	}
}
