package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// At full budget, set difference and group-by combine to exactly the
// reference evaluator's answers, compared as sets of Tuple.Key strings:
// the exact side of a difference and groups keyed by two columns (which
// the random corpora never generate), for every aggregate whose value is
// exact.
func TestExactCombinesMatchReference(t *testing.T) {
	s, db := setup(t)
	// The POIs in cities where friends of p0 live, with predicates on top.
	near := func(p0 int64, preds ...query.Pred) *query.SPC {
		q := fixture.Q1(p0, 0)
		q.Preds = append(q.Preds[:3:3], preds...)
		q.Output = []query.Col{query.C("h", "type"), query.C("h", "city"), query.C("h", "price")}
		return q
	}
	hotels := query.EqC(query.C("h", "type"), relation.String("hotel"))
	exprs := []query.Expr{
		&query.Diff{L: near(3, hotels), R: near(3, hotels, query.LeC(query.C("h", "price"), relation.Float(95)))},
		&query.Diff{L: near(3, hotels), R: near(5, hotels)},
	}
	for _, agg := range []query.AggKind{query.AggCount, query.AggMin, query.AggMax} {
		exprs = append(exprs, &query.GroupBy{
			In:   near(3),
			Keys: []query.Col{query.C("h", "type"), query.C("h", "city")},
			Agg:  agg, On: query.C("h", "price"), As: "agg",
		})
	}
	for _, e := range exprs {
		ans, p, err := s.AnswerContext(context.Background(), e, ExecOptions{Alpha: 1})
		if err != nil {
			t.Fatalf("%s: %v", query.Render(e), err)
		}
		if !p.Exact {
			t.Fatalf("%s: not exact at alpha 1", query.Render(e))
		}
		want, err := query.EvaluateSet(db, e)
		if err != nil {
			t.Fatal(err)
		}
		if got := relKeys(ans.Rel); len(got) < 2 || !slices.Equal(got, relKeys(want)) {
			t.Errorf("%s:\n got %q\nwant %q", query.Render(e), got, relKeys(want))
		}
	}
}
