package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/plan"
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

// Below full budget, a group-by over one SPC leaf weights each fetched row
// by its count annotation. Grouping by two columns must aggregate exactly
// the leaf's own rows and weights, keyed by both columns together: the
// reference here is built from the same plan's leaf result, keyed by the
// Tuple.Key of the (type, city) pair, for count, sum, min and max.
func TestMultiKeyGroupByMatchesWeightedRows(t *testing.T) {
	s, _ := setup(t)
	ctx := context.Background()
	in := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
		Output: []query.Col{query.C("h", "type"), query.C("h", "city"), query.C("h", "price")},
	}
	keys := []query.Col{query.C("h", "type"), query.C("h", "city")}
	on := query.C("h", "price")
	for _, agg := range []query.AggKind{query.AggCount, query.AggSum, query.AggMin, query.AggMax} {
		g := &query.GroupBy{In: in, Keys: keys, Agg: agg, On: on, As: "agg"}
		p, err := s.PlanContext(ctx, g, ExecOptions{Alpha: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if p.Exact {
			t.Fatalf("%s: exact at alpha 0.05; rows would carry no weights", query.Render(g))
		}
		r, err := plan.ExecuteOpts(ctx, p.Leaves[0].Bounded, s.db, plan.ExecOpts{Budget: p.Budget})
		if err != nil {
			t.Fatal(err)
		}
		if slices.Max(r.Weights) < 2 {
			t.Fatalf("%s: every fetched row has weight 1; the weighting is untested", query.Render(g))
		}
		got, err := s.combineGroupBy(p, g, []*plan.Result{r})
		if err != nil {
			t.Fatal(err)
		}
		want := weightedGroups(t, r, keys, on, agg)
		if len(want) < 2 || !slices.Equal(relKeys(got), want) {
			t.Errorf("%s:\n got %q\nwant %q", query.Render(g), relKeys(got), want)
		}
	}
}

// weightedGroups aggregates a leaf result's rows, each counted by its
// weight, into groups keyed by the Tuple.Key of the key columns, and
// returns the sorted Tuple.Key strings of the (keys..., aggregate) rows.
func weightedGroups(t *testing.T, r *plan.Result, keys []query.Col, on query.Col, agg query.AggKind) []string {
	t.Helper()
	col := func(c query.Col) int {
		i, ok := r.Rel.Schema.Index(c.Name())
		if !ok {
			t.Fatalf("column %s missing", c)
		}
		return i
	}
	type group struct {
		key      relation.Tuple
		count    int64
		sum      float64
		min, max relation.Value
	}
	groups := map[string]*group{}
	var order []string
	onIdx := col(on)
	for ri, row := range r.Rel.Tuples {
		var key relation.Tuple
		for _, k := range keys {
			key = append(key, row[col(k)])
		}
		g := groups[key.Key()]
		v, w := row[onIdx], r.Weights[ri]
		if g == nil {
			g = &group{key: key, min: v, max: v}
			groups[key.Key()] = g
			order = append(order, key.Key())
		}
		f, _ := v.AsFloat()
		g.count += int64(w)
		g.sum += f * float64(w)
		if v.Less(g.min) {
			g.min = v
		}
		if g.max.Less(v) {
			g.max = v
		}
	}
	out := make([]string, 0, len(order))
	for _, k := range order {
		g := groups[k]
		val := map[query.AggKind]relation.Value{
			query.AggCount: relation.Int(g.count),
			query.AggSum:   relation.Float(g.sum),
			query.AggMin:   g.min,
			query.AggMax:   g.max,
		}[agg]
		out = append(out, append(slices.Clone(g.key), val).Key())
	}
	slices.Sort(out)
	return out
}
