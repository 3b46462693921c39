package chase

import (
	"slices"
	"testing"

	"repro/internal/access"
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

func TestChaseQ2BoundedlyEvaluable(t *testing.T) {
	db, as := setup(t)
	// Q2 uses only ϕ1 and ϕ2; it should chase to an all-exact plan even
	// under a small budget (paper Example 1(2)).
	res, err := Chase(fixture.Q2(3), as, db, 200)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	if !res.AllExact {
		t.Error("Q2 must be boundedly evaluable (all exact)")
	}
	for _, s := range res.Steps {
		if !s.Exact || !s.Pinned {
			t.Errorf("Q2 step not exact: %+v", s)
		}
	}
	if got := res.Tariff(res.Levels()); got > 200 {
		t.Errorf("Q2 tariff = %d, want <= budget", got)
	}
}

func TestChaseQ1SmallBudgetUsesTemplates(t *testing.T) {
	db, as := setup(t)
	res, err := Chase(fixture.Q1(3, 95), as, db, 40)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	if res.AllExact {
		t.Error("tight budget should force approximate coverage")
	}
	hasTemplate := false
	for _, s := range res.Steps {
		if !s.Pinned {
			hasTemplate = true
			if s.K != 0 {
				t.Errorf("template placeholder must start at k=0, got %d", s.K)
			}
		}
	}
	if !hasTemplate {
		t.Error("expected at least one template step")
	}
	if got := res.Tariff(res.Levels()); got > 40 {
		t.Errorf("initial tariff = %d exceeds budget 40", got)
	}
}

func TestChaseQ1LargeBudgetExact(t *testing.T) {
	db, as := setup(t)
	res, err := Chase(fixture.Q1(3, 95), as, db, db.Size()*10)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	if !res.AllExact {
		t.Error("generous budget should allow an all-constraint (exact) plan")
	}
}

func TestChaseCoverage(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q1(3, 95)
	res, err := Chase(q, as, db, 100)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	// Every used attribute of every atom is covered (Lemma 4).
	for ai := range q.Atoms {
		for _, attr := range res.UsedAttrs(ai) {
			if res.CoveredBy(ai, attr) < 0 {
				t.Errorf("atom %d attr %s not covered", ai, attrName(res, ai, attr))
			}
		}
	}
	// Steps reference earlier steps only (executable order).
	for si, s := range res.Steps {
		for _, src := range s.X {
			if src.IsConst {
				continue
			}
			cs := res.CoveredBy(src.AtomIdx, src.Attr)
			if cs < 0 || cs >= si {
				t.Errorf("step %d depends on step %d (not earlier)", si, cs)
			}
		}
	}
	// Every used attribute is fetched by its covering step: a step on the
	// same atom whose Covers lists it.
	for ai := range q.Atoms {
		for _, a := range res.UsedAttrs(ai) {
			si := res.CoveredBy(ai, a)
			if si < 0 || res.Steps[si].AtomIdx != ai || !slices.Contains(res.Steps[si].Covers, a) {
				t.Errorf("atom %d: used attr %s not fetched", ai, attrName(res, ai, a))
			}
		}
	}
}

func TestChaseResolution(t *testing.T) {
	db, as := setup(t)
	res, err := Chase(fixture.Q1(3, 95), as, db, 40)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	// Find the poi atom (index 0 in Q1) and its price resolution.
	ks := res.Levels()
	r0 := resolutionOf(res, 0, "price", ks)
	if r0 <= 0 {
		t.Errorf("price resolution at k=0 = %g, want > 0", r0)
	}
	// Upgrading every template step to its ladder top must yield 0.
	for si := range res.Steps {
		if !res.Steps[si].Pinned {
			ks[si] = res.Steps[si].Ladder.MaxK()
		}
	}
	if got := resolutionOf(res, 0, "price", ks); got != 0 {
		t.Errorf("price resolution at top level = %g, want 0", got)
	}
	// Constants resolve exactly.
	if got := resolutionOf(res, 1, "pid", res.Levels()); got != 0 {
		t.Errorf("constant-bound attr resolution = %g, want 0", got)
	}
}

func TestChaseTariffMonotoneInLevels(t *testing.T) {
	db, as := setup(t)
	res, err := Chase(fixture.Q1(3, 95), as, db, 40)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	ks := res.Levels()
	base := res.Tariff(ks)
	for si := range res.Steps {
		if res.Steps[si].Pinned {
			continue
		}
		ks2 := append([]int(nil), ks...)
		ks2[si]++
		if up := res.Tariff(ks2); up < base {
			t.Errorf("tariff decreased after upgrading step %d: %d -> %d", si, base, up)
		}
	}
}

func TestChaseWithoutApplicableLadderFails(t *testing.T) {
	db := fixture.Example1(7, 20, 50)
	// Empty access schema: nothing can cover the query.
	as := &access.Schema{}
	if _, err := Chase(fixture.Q2(1), as, db, 100); err == nil {
		t.Error("chase must fail without any applicable ladder")
	}
}

func TestChaseValidatesQuery(t *testing.T) {
	db, as := setup(t)
	bad := &query.SPC{Atoms: []query.Atom{{Rel: "nope"}}}
	if _, err := Chase(bad, as, db, 100); err == nil {
		t.Error("invalid query must be rejected")
	}
}

func TestChaseAtOnlyCoversEverything(t *testing.T) {
	db := fixture.Example1(9, 30, 120)
	as, err := access.BuildAt(db)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	// Approximability Theorem 1: under At alone, any SPC query chases to
	// a covered plan.
	res, err := Chase(fixture.Q1(2, 95), as, db, 25)
	if err != nil {
		t.Fatalf("Chase under At: %v", err)
	}
	for ai := range res.Leaf.Q.Atoms {
		for _, attr := range res.UsedAttrs(ai) {
			if res.CoveredBy(ai, attr) < 0 {
				t.Errorf("At chase left atom %d attr %s uncovered", ai, attrName(res, ai, attr))
			}
		}
	}
}

func TestChaseExistenceAtom(t *testing.T) {
	db, as := setup(t)
	// An atom with no predicates or output columns still gets a fetch.
	q := &query.SPC{
		Atoms: []query.Atom{
			{Rel: "person", Alias: "p"},
			{Rel: "poi", Alias: "h"}, // pure existence
		},
		Preds:  []query.Pred{query.EqC(query.C("p", "pid"), relation.Int(1))},
		Output: []query.Col{query.C("p", "city")},
	}
	res, err := Chase(q, as, db, 100)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	found := false
	for _, s := range res.Steps {
		if s.AtomIdx == 1 {
			found = true
		}
	}
	if !found {
		t.Error("existence atom must still be fetched")
	}
}

func TestTariffSaturation(t *testing.T) {
	if satMul(satCap, 2) != satCap {
		t.Error("satMul must saturate")
	}
	if satAdd(satCap, satCap) != satCap {
		t.Error("satAdd must saturate")
	}
	if satMul(0, 5) != 0 || satMul(3, 4) != 12 || satAdd(3, 4) != 7 {
		t.Error("saturating arithmetic basics")
	}
}
