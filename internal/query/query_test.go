package query

import (
	"testing"

	"repro/internal/relation"
)

// testDB builds the Example 1 database: person, friend, poi.
func testDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()

	person := relation.NewRelation(relation.MustSchema("person",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
	))
	person.MustAppend(
		relation.Tuple{relation.Int(1), relation.String("NYC")},
		relation.Tuple{relation.Int(2), relation.String("Chicago")},
		relation.Tuple{relation.Int(3), relation.String("NYC")},
		relation.Tuple{relation.Int(4), relation.String("Boston")},
	)

	friend := relation.NewRelation(relation.MustSchema("friend",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("fid", relation.KindInt, relation.Trivial()),
	))
	friend.MustAppend(
		relation.Tuple{relation.Int(0), relation.Int(1)},
		relation.Tuple{relation.Int(0), relation.Int(2)},
		relation.Tuple{relation.Int(1), relation.Int(3)},
	)

	poi := relation.NewRelation(relation.MustSchema("poi",
		relation.Attr("address", relation.KindString, relation.Discrete()),
		relation.Attr("type", relation.KindString, relation.Discrete()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
		relation.Attr("price", relation.KindFloat, relation.Numeric(100)),
	))
	poi.MustAppend(
		relation.Tuple{relation.String("a1"), relation.String("hotel"), relation.String("NYC"), relation.Float(90)},
		relation.Tuple{relation.String("a2"), relation.String("hotel"), relation.String("NYC"), relation.Float(99)},
		relation.Tuple{relation.String("a3"), relation.String("hotel"), relation.String("Chicago"), relation.Float(80)},
		relation.Tuple{relation.String("a4"), relation.String("bar"), relation.String("NYC"), relation.Float(20)},
		relation.Tuple{relation.String("a5"), relation.String("hotel"), relation.String("Boston"), relation.Float(200)},
	)

	db.MustAdd(person)
	db.MustAdd(friend)
	db.MustAdd(poi)
	return db
}

// q1 is the paper's Q1: hotels costing at most $95 in a city where a friend
// of person p0 lives.
func q1(p0 int64, maxPrice float64) *SPC {
	return &SPC{
		Atoms: []Atom{{Rel: "poi", Alias: "h"}, {Rel: "friend", Alias: "f"}, {Rel: "person", Alias: "p"}},
		Preds: []Pred{
			EqC(C("f", "pid"), relation.Int(p0)),
			EqJ(C("f", "fid"), C("p", "pid")),
			EqJ(C("p", "city"), C("h", "city")),
			EqC(C("h", "type"), relation.String("hotel")),
			LeC(C("h", "price"), relation.Float(maxPrice)),
		},
		Output: []Col{C("h", "address"), C("h", "price")},
	}
}

func TestClassify(t *testing.T) {
	spc := q1(0, 95)
	if Classify(spc) != ClassSPC {
		t.Error("SPC classification")
	}
	d := &Diff{L: spc, R: q1(1, 95)}
	if Classify(d) != ClassRA {
		t.Error("Diff is RA")
	}
	g := &GroupBy{In: spc, Keys: []Col{C("h", "address")}, Agg: AggCount, On: C("h", "price")}
	if Classify(g) != ClassAggr {
		t.Error("GroupBy is RAaggr")
	}
	if ClassSPC.String() != "SPC" || ClassRA.String() != "RA" || ClassAggr.String() != "RAaggr" {
		t.Error("Class names")
	}
}

func TestSPCLeavesAndMetrics(t *testing.T) {
	a, b, c := q1(0, 95), q1(1, 95), q1(2, 95)
	e := &Union{L: &Diff{L: a, R: b}, R: c}
	leaves := SPCLeaves(e)
	if len(leaves) != 3 || leaves[0] != a || leaves[1] != b || leaves[2] != c {
		t.Errorf("SPCLeaves = %v", leaves)
	}
	if !HasDiff(e) || HasDiff(c) {
		t.Error("HasDiff")
	}
	if NumProducts(a) != 2 {
		t.Errorf("NumProducts = %d, want 2", NumProducts(a))
	}
	if NumSelections(a) != 5 {
		t.Errorf("NumSelections = %d, want 5", NumSelections(a))
	}
	if NumRelations(e) != 9 {
		t.Errorf("NumRelations = %d, want 9", NumRelations(e))
	}
}

func TestMaxInduced(t *testing.T) {
	a, b := q1(0, 95), q1(1, 95)
	e := &Diff{L: &Union{L: a, R: b}, R: q1(2, 95)}
	ind := MaxInduced(e)
	u, ok := ind.(*Union)
	if !ok {
		t.Fatalf("MaxInduced = %T, want *Union", ind)
	}
	if u.L != a || u.R != b {
		t.Error("MaxInduced should drop only the negated branch")
	}
	g := &GroupBy{In: e, Keys: []Col{C("h", "address")}, Agg: AggCount, On: C("h", "price")}
	gi, ok := MaxInduced(g).(*GroupBy)
	if !ok || HasDiff(gi.In) {
		t.Error("MaxInduced must recurse through group-by")
	}
}

func TestValidate(t *testing.T) {
	db := testDB(t)
	if _, err := Validate(q1(0, 95), db); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := &SPC{Atoms: []Atom{{Rel: "nope"}}}
	if _, err := Validate(bad, db); err == nil {
		t.Error("unknown relation must fail")
	}
	dup := &SPC{Atoms: []Atom{{Rel: "poi", Alias: "x"}, {Rel: "person", Alias: "x"}}}
	if _, err := Validate(dup, db); err == nil {
		t.Error("duplicate alias must fail")
	}
	badCol := &SPC{Atoms: []Atom{{Rel: "poi"}}, Preds: []Pred{EqC(C("poi", "nope"), relation.Int(1))}}
	if _, err := Validate(badCol, db); err == nil {
		t.Error("unknown predicate column must fail")
	}
	badOut := &SPC{Atoms: []Atom{{Rel: "poi"}}, Output: []Col{C("x", "price")}}
	if _, err := Validate(badOut, db); err == nil {
		t.Error("unknown output alias must fail")
	}
	nullPred := &SPC{Atoms: []Atom{{Rel: "poi"}}, Preds: []Pred{EqC(C("poi", "price"), relation.Null())}}
	if _, err := Validate(nullPred, db); err == nil {
		t.Error("NULL constant must fail")
	}
	badJoinOp := &SPC{Atoms: []Atom{{Rel: "poi"}},
		Preds: []Pred{{Op: OpGt, Left: C("poi", "price"), Join: true, Right: C("poi", "price")}}}
	if _, err := Validate(badJoinOp, db); err == nil {
		t.Error("> between columns must fail")
	}
	arity := &Union{L: q1(0, 95), R: &SPC{Atoms: []Atom{{Rel: "person"}}, Output: []Col{C("person", "pid")}}}
	if _, err := Validate(arity, db); err == nil {
		t.Error("union arity mismatch must fail")
	}
	nested := &Union{L: q1(0, 95), R: q1(1, 95)}
	g := &GroupBy{In: nested, Keys: []Col{C("h", "address")}, Agg: AggCount, On: C("h", "price")}
	if _, err := Validate(g, db); err != nil {
		t.Errorf("group-by over RA should validate: %v", err)
	}
	inner := &Diff{L: g, R: g}
	if _, err := Validate(inner, db); err == nil {
		t.Error("non-root group-by must fail")
	}
	badKey := &GroupBy{In: q1(0, 95), Keys: []Col{C("h", "city")}, Agg: AggCount, On: C("h", "price")}
	if _, err := Validate(badKey, db); err == nil {
		t.Error("group-by key outside output must fail")
	}
}

func TestOutputSchema(t *testing.T) {
	db := testDB(t)
	s, err := OutputSchema(q1(0, 95), db)
	if err != nil {
		t.Fatalf("OutputSchema: %v", err)
	}
	if s.Arity() != 2 || s.Attrs[0].Name != "h.address" || s.Attrs[1].Name != "h.price" {
		t.Errorf("schema = %v", s.AttrNames())
	}
	// Distance specs carried from the base schema.
	if s.Attrs[1].Dist.Kind != relation.DistNumeric || s.Attrs[1].Dist.Scale != 100 {
		t.Error("price distance spec lost")
	}
	// Star output.
	star := &SPC{Atoms: []Atom{{Rel: "person", Alias: "p"}}}
	ss, err := OutputSchema(star, db)
	if err != nil || ss.Arity() != 2 || ss.Attrs[0].Name != "p.pid" {
		t.Errorf("star schema = %v, %v", ss, err)
	}
	// GroupBy schema.
	g := &GroupBy{In: q1(0, 95), Keys: []Col{C("h", "address")}, Agg: AggCount, On: C("h", "price"), As: "cnt"}
	gs, err := OutputSchema(g, db)
	if err != nil {
		t.Fatalf("group-by schema: %v", err)
	}
	if gs.Arity() != 2 || gs.Attrs[1].Name != "cnt" || gs.Attrs[1].Type != relation.KindInt {
		t.Errorf("group-by schema = %v", gs.AttrNames())
	}
	// Sum produces float with the source scale.
	g2 := &GroupBy{In: q1(0, 95), Keys: []Col{C("h", "address")}, Agg: AggSum, On: C("h", "price")}
	gs2, err := OutputSchema(g2, db)
	if err != nil || gs2.Attrs[1].Type != relation.KindFloat || gs2.Attrs[1].Dist.Scale != 100 {
		t.Errorf("sum schema = %+v, %v", gs2.Attrs, err)
	}
}

func TestPredViolation(t *testing.T) {
	dist := relation.Numeric(10)
	p := LeC(C("h", "price"), relation.Float(95))
	if v := p.Violation(dist, relation.Float(90), relation.Null()); v != 0 {
		t.Errorf("satisfied <=: violation %g", v)
	}
	if v := p.Violation(dist, relation.Float(99), relation.Null()); v != 0.4 {
		t.Errorf("99 vs <=95: violation %g, want 0.4", v)
	}
	eq := EqC(C("h", "price"), relation.Float(95))
	if v := eq.Violation(dist, relation.Float(99), relation.Null()); v != 0.4 {
		t.Errorf("= violation %g, want 0.4", v)
	}
	// Join predicates relax both sides: distance / 2.
	j := EqJ(C("a", "x"), C("b", "x"))
	if v := j.Violation(dist, relation.Float(10), relation.Float(14)); v != 0.2 {
		t.Errorf("join violation %g, want 0.2", v)
	}
	if !p.RelaxedHolds(dist, relation.Float(99), relation.Null(), 0.4) {
		t.Error("RelaxedHolds at exactly r")
	}
	if p.RelaxedHolds(dist, relation.Float(99), relation.Null(), 0.39) {
		t.Error("RelaxedHolds below r")
	}
	ge := GeC(C("h", "price"), relation.Float(95))
	if v := ge.Violation(dist, relation.Float(90), relation.Null()); v != 0.5 {
		t.Errorf(">= violation %g, want 0.5", v)
	}
}

func TestRender(t *testing.T) {
	q := q1(0, 95)
	s := Render(q)
	want := "select h.address, h.price from poi as h, friend as f, person as p where f.pid = 0 and f.fid = p.pid and p.city = h.city and h.type = 'hotel' and h.price <= 95.0"
	if s != want {
		t.Errorf("Render =\n%q\nwant\n%q", s, want)
	}
	g := &GroupBy{In: q, Keys: []Col{C("h", "address")}, Agg: AggCount, On: C("h", "price"), As: "cnt"}
	gs := Render(g)
	if gs == "" || gs == s {
		t.Errorf("group-by render = %q", gs)
	}
	u := Render(&Union{L: q, R: q})
	d := Render(&Diff{L: q, R: q})
	if u == "" || d == "" || u == d {
		t.Error("union/diff render")
	}
}

// Render doubles as the plan-cache key, so it must distinguish group-by
// queries whose inner projections differ even when the SQL-shaped select
// list would look identical.
func TestRenderGroupByInjective(t *testing.T) {
	mk := func(extra bool) *GroupBy {
		spc := &SPC{
			Atoms:  []Atom{{Rel: "poi", Alias: "h"}},
			Output: []Col{C("h", "city"), C("h", "price")},
		}
		if extra {
			spc.Output = append(spc.Output, C("h", "address"))
		}
		return &GroupBy{In: spc, Keys: []Col{C("h", "city")}, Agg: AggMax, On: C("h", "price"), As: "agg"}
	}
	r1, r2 := Render(mk(false)), Render(mk(true))
	if r1 == r2 {
		t.Fatalf("distinct group-by queries render identically: %q", r1)
	}
	if r1 != "select h.city, max(h.price) as agg from poi as h group by h.city" {
		t.Errorf("SQL-shaped render = %q", r1)
	}
}
