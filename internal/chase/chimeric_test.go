package chase

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// A follow-up fetch that cannot correlate with an atom's earlier fetch must
// be marked chimeric, and the attributes it covers must resolve to +inf —
// no accuracy can be claimed through cross-product pairings.
func TestChimericStepDetection(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("r",
		relation.Attr("a", relation.KindInt, relation.Trivial()),
		relation.Attr("b", relation.KindFloat, relation.Numeric(10)),
		relation.Attr("c", relation.KindFloat, relation.Numeric(10)),
	))
	for i := 0; i < 16; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i % 4)),
			relation.Float(float64(i)),
			relation.Float(float64(16 - i)),
		})
	}
	db.MustAdd(r)
	// Two disjoint ladders: a->b and (At-style) ∅->c. Covering both b and
	// c for one atom forces a non-correlated second fetch.
	as := &access.Schema{}
	if _, err := as.Extend(db, "r", []string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Extend(db, "r", nil, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	q := &query.SPC{
		Atoms: []query.Atom{{Rel: "r", Alias: "x"}},
		Preds: []query.Pred{
			query.EqC(query.C("x", "a"), relation.Int(1)),
			query.LeC(query.C("x", "b"), relation.Float(8)),
			query.LeC(query.C("x", "c"), relation.Float(8)),
		},
		Output: []query.Col{query.C("x", "b"), query.C("x", "c")},
	}
	res, err := Chase(q, as, db, 1000)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	chimeric := 0
	for _, s := range res.Steps {
		if s.Chimeric {
			chimeric++
			if s.Exact || s.Pinned {
				t.Error("chimeric steps must not be exact or pinned")
			}
		}
	}
	if chimeric == 0 {
		t.Fatal("expected a chimeric step for the uncorrelated second fetch")
	}
	// The chimeric coverage voids resolution regardless of levels.
	ks := res.Levels()
	for si := range res.Steps {
		if !res.Steps[si].Pinned {
			ks[si] = res.Steps[si].Ladder.MaxK()
		}
	}
	if got := resolutionOf(res, 0, "c", ks); !math.IsInf(got, 1) {
		t.Errorf("chimeric attr resolution = %g, want +inf", got)
	}
	// ... and the plan is never reported all-exact.
	if res.AllExact {
		t.Error("plan with chimeric coverage cannot be all-exact")
	}
}

// When the second fetch keys on the atom's own covered attributes, it is
// correlated and keeps its accuracy claims.
func TestCorrelatedFollowUpIsNotChimeric(t *testing.T) {
	db := fixture.Example1(3, 40, 200)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Chase(fixture.Q1(3, 95), as, db, db.Size())
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	for si, s := range res.Steps {
		if s.Chimeric {
			t.Errorf("step %d unexpectedly chimeric (%s)", si, s.Ladder.RelName)
		}
	}
}
