package chase

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// attrIdx maps an attribute name of atom to its index in the atom's base
// schema, the column currency of Result.
func attrIdx(res *Result, atom int, name string) int {
	return res.Leaf.Bases[atom].MustIndex(name)
}

// attrName is attrIdx's inverse, for messages.
func attrName(res *Result, atom, attr int) string {
	return res.Leaf.Bases[atom].Attrs[attr].Name
}

// resolutionOf reads the resolution of the named column from the table
// Resolutions fills under ks.
func resolutionOf(res *Result, atom int, name string, ks []int) float64 {
	table := make([]float64, res.NumCols())
	res.Resolutions(ks, table)
	return table[res.Col(atom, attrIdx(res, atom, name))]
}

// resolutionRef is the recursive, name-matching derivation of one
// column's resolution that Resolutions replaced, kept as its reference:
// the resolution of the template that fetched (atom, attr) or, for an X
// attribute, the resolution propagated from its source site (constants
// are exact), under a depth guard; +inf for anything uncovered.
func resolutionRef(r *Result, atom, attr int, ks []int, depth int) float64 {
	if depth > len(r.Steps)+1 {
		return math.Inf(1)
	}
	si := r.CoveredBy(atom, attr)
	if si < 0 {
		return math.Inf(1)
	}
	s := &r.Steps[si]
	if s.Chimeric {
		return math.Inf(1)
	}
	name := attrName(r, atom, attr)
	for xi, x := range s.Ladder.X {
		if x != name {
			continue
		}
		src := s.X[xi]
		if src.IsConst {
			return 0
		}
		return resolutionRef(r, src.AtomIdx, src.Attr, ks, depth+1)
	}
	for _, src := range s.X {
		if src.IsConst {
			continue
		}
		if resolutionRef(r, src.AtomIdx, src.Attr, ks, depth+1) != 0 {
			return math.Inf(1)
		}
	}
	res := s.Ladder.Resolution(levelOf(s, ks, si))
	for yi, y := range s.Ladder.Y {
		if y == name {
			return res[yi]
		}
	}
	return math.Inf(1)
}

// approxChain is a leaf whose second fetch keys on an approximately
// resolved column: x = r is sampled through a whole-relation template, so
// x.b has a finite, non-zero resolution below the top level, and y = s is
// fetched by s(b → c) with X drawn from x.b. Below r's top level y.c must
// resolve to +inf (approximate inputs void the ladder's bound) and y.b
// inherits x.b's resolution. The corpora never chain a template through a
// bounded-distance join column.
func approxChain(t *testing.T) (*relation.Database, *access.Schema, query.Expr) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("r",
		relation.Attr("a", relation.KindInt, relation.Trivial()),
		relation.Attr("b", relation.KindFloat, relation.Numeric(10)),
	))
	s := relation.NewRelation(relation.MustSchema("s",
		relation.Attr("b", relation.KindFloat, relation.Numeric(10)),
		relation.Attr("c", relation.KindFloat, relation.Numeric(10)),
	))
	for i := 0; i < 64; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i%16) * 1.5)})
		s.MustAppend(relation.Tuple{relation.Float(float64(i%16) * 1.5), relation.Float(float64(i))})
	}
	db.MustAdd(r)
	db.MustAdd(s)
	as := &access.Schema{}
	if _, err := as.Extend(db, "r", nil, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Extend(db, "s", []string{"b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	return db, as, &query.SPC{
		Atoms:  []query.Atom{{Rel: "r", Alias: "x"}, {Rel: "s", Alias: "y"}},
		Preds:  []query.Pred{query.EqJ(query.C("x", "b"), query.C("y", "b"))},
		Output: []query.Col{query.C("x", "b"), query.C("y", "c")},
	}
}

// TestResolutionsMatchRecursive checks the one-pass resolution table
// against the recursive reference at every (atom, attribute) of every leaf
// of the 200-case corpus, the edge-shape corpus, generated TPCH and TFACC
// workloads and approxChain, each chased at three budgets, under the
// initial levels and under seeded random levels within [0, MaxK] — +inf
// matching +inf.
func TestResolutionsMatchRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	checked := 0
	run := func(set string, db *relation.Database, as *access.Schema, queries []query.Expr) {
		for ci, q := range queries {
			for li, leaf := range query.SPCLeaves(q) {
				for _, budget := range []int{db.Size() / 100, db.Size() / 10, db.Size()} {
					res, err := Chase(leaf, as, db, budget)
					if err != nil {
						continue
					}
					table := make([]float64, res.NumCols())
					for round := 0; round < 4; round++ {
						ks := res.Levels()
						if round > 0 {
							for si := range ks {
								ks[si] = rng.Intn(res.Steps[si].Ladder.MaxK() + 1)
							}
						}
						res.Resolutions(ks, table)
						for ai, b := range res.Leaf.Bases {
							for attr := range b.Attrs {
								got := table[res.Col(ai, attr)]
								want := resolutionRef(res, ai, attr, ks, 0)
								if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
									t.Fatalf("%s case %d leaf %d budget %d levels %v: %s.%s resolves to %g, reference %g",
										set, ci, li, budget, ks, b.Name, b.Attrs[attr].Name, got, want)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	corpora := func(set string, db *relation.Database, cases []corpus.Case) {
		as, err := fixture.SchemaA0(db)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]query.Expr, len(cases))
		for i, c := range cases {
			queries[i] = c.Query
		}
		run(set, db, as, queries)
	}
	corpora("corpus", fixture.Example1(7, 120, 80), corpus.Default())
	corpora("edge", corpus.EdgeDB(), corpus.EdgeCases())
	for _, d := range []*workload.Dataset{workload.TPCH(1, 3), workload.TFACC(1, 3)} {
		as, err := d.AccessSchema()
		if err != nil {
			t.Fatal(err)
		}
		queries, err := d.Workload(128, 5)
		if err != nil {
			t.Fatal(err)
		}
		run(d.Name, d.DB, as, queries)
	}
	db, as, q := approxChain(t)
	run("approximate chain", db, as, []query.Expr{q})
	if checked == 0 {
		t.Fatal("no column checked")
	}
	t.Logf("%d column resolutions checked", checked)
}

// TestResolutionsAllocs pins that filling a caller-owned table allocates
// nothing.
func TestResolutionsAllocs(t *testing.T) {
	db, as := setup(t)
	res, err := Chase(fixture.Q1(3, 95), as, db, 40)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	ks := res.Levels()
	table := make([]float64, res.NumCols())
	if n := testing.AllocsPerRun(100, func() { res.Resolutions(ks, table) }); n != 0 {
		t.Errorf("Resolutions allocates %v times per call, want 0", n)
	}
}
