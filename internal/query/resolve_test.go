package query_test

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Resolve binds what name lookups find, and fails where Validate fails.
func TestResolveMatchesNames(t *testing.T) {
	t.Run("bindings", testResolveBindings)
	t.Run("errors", testResolveErrors)
}

// testResolveBindings: every leaf of the random corpus, the edge corpus
// and generated TPCH and TFACC workloads resolves to the bindings an alias
// map and Schema.Index lookups give, and to the output schema built from
// those lookups, which OutputSchema returns too.
func testResolveBindings(t *testing.T) {
	type set struct {
		name  string
		db    *relation.Database
		exprs []query.Expr
	}
	cases := func(cs []corpus.Case) []query.Expr {
		out := make([]query.Expr, len(cs))
		for i, c := range cs {
			out[i] = c.Query
		}
		return out
	}
	sets := []set{
		{"corpus", fixture.Example1(7, 60, 80), cases(corpus.Default())},
		{"edge", corpus.EdgeDB(), cases(corpus.EdgeCases())},
	}
	for _, d := range []*workload.Dataset{workload.TPCH(1, 3), workload.TFACC(1, 3)} {
		exprs, err := d.Workload(128, 5)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set{d.Name, d.DB, exprs})
	}
	for _, s := range sets {
		leaves := 0
		for ei, e := range s.exprs {
			for _, leaf := range query.SPCLeaves(e) {
				checkResolved(t, s.name, ei, s.db, leaf)
				leaves++
			}
		}
		t.Logf("%s: %d leaves of %d expressions", s.name, leaves, len(s.exprs))
	}
}

// checkResolved compares Resolve's bindings of one leaf with name lookups.
func checkResolved(t *testing.T, set string, ei int, db *relation.Database, q *query.SPC) {
	t.Helper()
	r, err := query.Resolve(q, db)
	if err != nil {
		t.Fatalf("%s expression %d: %v", set, ei, err)
	}
	atomOf := map[string]int{}
	for i, a := range q.Atoms {
		atomOf[a.Name()] = i
		if want := db.MustRelation(a.Rel).Schema; r.Bases[i] != want {
			t.Fatalf("%s expression %d: base of atom %d is %s, want %s", set, ei, i, r.Bases[i].Name, want.Name)
		}
	}
	check := func(what string, c query.Col, b query.Binding) {
		t.Helper()
		ai, ok := atomOf[c.Rel]
		if !ok {
			t.Fatalf("%s expression %d: %s %s has no atom", set, ei, what, c)
		}
		s := db.MustRelation(q.Atoms[ai].Rel).Schema
		i, ok := s.Index(c.Attr)
		if !ok {
			t.Fatalf("%s expression %d: %s %s has no attribute", set, ei, what, c)
		}
		want := query.Binding{Col: c, Atom: ai, Index: i, Attr: s.Attrs[i]}
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("%s expression %d: %s %s bound to %+v, want %+v", set, ei, what, c, b, want)
		}
	}
	if len(r.Preds) != len(q.Preds) {
		t.Fatalf("%s expression %d: %d predicate bindings for %d predicates", set, ei, len(r.Preds), len(q.Preds))
	}
	for pi, p := range q.Preds {
		check("predicate", p.Left, r.Preds[pi].Left)
		if p.Join {
			check("join", p.Right, r.Preds[pi].Right)
		} else if r.Preds[pi].Right != (query.Binding{}) {
			t.Fatalf("%s expression %d: constant predicate %s binds a right side", set, ei, p)
		}
	}
	out, err := query.OutputCols(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Output) != len(out) {
		t.Fatalf("%s expression %d: %d output bindings for %d columns", set, ei, len(r.Output), len(out))
	}
	attrs := make([]relation.Attribute, len(out))
	for i, c := range out {
		check("output", c, r.Output[i])
		s := db.MustRelation(q.Atoms[atomOf[c.Rel]].Rel).Schema
		a := s.Attrs[s.MustIndex(c.Attr)]
		attrs[i] = relation.Attr(c.Name(), a.Type, a.Dist)
	}
	want := relation.MustSchema("q", attrs...)
	if !reflect.DeepEqual(r.Schema, want) {
		t.Fatalf("%s expression %d: output schema %v, want %v", set, ei, r.Schema.AttrNames(), want.AttrNames())
	}
	if got, err := query.OutputSchema(q, db); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s expression %d: OutputSchema %v (%v), want %v", set, ei, got, err, want.AttrNames())
	}
}

// testResolveErrors: Resolve rejects the invalid leaves Validate rejects,
// with the same error text — those of TestValidate and
// TestChaseValidatesQuery. An invalid expression whose every leaf resolves
// fails Validate on the expression alone.
func testResolveErrors(t *testing.T) {
	db := fixture.Example1(7, 10, 10)
	poi := []query.Atom{{Rel: "poi"}}
	valid := &query.SPC{Atoms: []query.Atom{{Rel: "poi", Alias: "h"}}, Output: []query.Col{query.C("h", "city"), query.C("h", "price")}}
	person := &query.SPC{Atoms: []query.Atom{{Rel: "person"}}, Output: []query.Col{query.C("person", "pid")}}
	g := &query.GroupBy{In: valid, Keys: []query.Col{query.C("h", "city")}, Agg: query.AggCount, On: query.C("h", "price")}
	for _, tc := range []struct {
		name string
		e    query.Expr
	}{
		{"unknown relation", &query.SPC{Atoms: []query.Atom{{Rel: "nope"}}}},
		{"no atoms", &query.SPC{}},
		{"duplicate alias", &query.SPC{Atoms: []query.Atom{{Rel: "poi", Alias: "x"}, {Rel: "person", Alias: "x"}}}},
		{"unknown predicate column", &query.SPC{Atoms: poi, Preds: []query.Pred{query.EqC(query.C("poi", "nope"), relation.Int(1))}}},
		{"unknown output alias", &query.SPC{Atoms: poi, Output: []query.Col{query.C("x", "price")}}},
		{"NULL constant", &query.SPC{Atoms: poi, Preds: []query.Pred{query.EqC(query.C("poi", "price"), relation.Null())}}},
		{"> between columns", &query.SPC{Atoms: poi,
			Preds: []query.Pred{{Op: query.OpGt, Left: query.C("poi", "price"), Join: true, Right: query.C("poi", "price")}}}},
		{"duplicate output column", &query.SPC{Atoms: poi, Output: []query.Col{query.C("poi", "price"), query.C("poi", "price")}}},
		{"union arity mismatch", &query.Union{L: valid, R: person}},
		{"non-root group-by", &query.Diff{L: g, R: g}},
		{"group-by key outside output", &query.GroupBy{In: valid, Keys: []query.Col{query.C("h", "type")}, Agg: query.AggCount, On: query.C("h", "price")}},
	} {
		_, verr := query.Validate(tc.e, db)
		if verr == nil {
			t.Fatalf("%s: Validate accepts it", tc.name)
		}
		q, leaf := tc.e.(*query.SPC)
		if !leaf {
			for _, l := range query.SPCLeaves(tc.e) {
				if _, err := query.Resolve(l, db); err != nil {
					t.Fatalf("%s: leaf fails to resolve: %v", tc.name, err)
				}
			}
			continue
		}
		_, rerr := query.Resolve(q, db)
		if rerr == nil || rerr.Error() != verr.Error() {
			t.Errorf("%s: Resolve error %v, Validate error %v", tc.name, rerr, verr)
		}
	}
}
