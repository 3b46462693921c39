package workload

import (
	"testing"

	"repro/internal/query"
)

func datasets(t testing.TB) []*Dataset {
	t.Helper()
	return []*Dataset{
		TPCH(1, 1),
		AIRCA(1, 2),
		TFACC(1, 3),
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := TPCH(1, 42), TPCH(1, 42)
	if a.DB.Size() != b.DB.Size() {
		t.Fatal("same seed must give same size")
	}
	ra, rb := a.DB.MustRelation("lineitem"), b.DB.MustRelation("lineitem")
	for i := range ra.Tuples {
		if !ra.Tuples[i].EqualTuple(rb.Tuples[i]) {
			t.Fatalf("row %d differs between equal seeds", i)
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	for _, d := range datasets(t) {
		if d.DB.Size() == 0 {
			t.Errorf("%s: empty database", d.Name)
		}
		for _, j := range d.Joins {
			for _, rel := range []string{j.FromRel, j.ToRel} {
				if _, ok := d.DB.Relation(rel); !ok {
					t.Errorf("%s: join references unknown relation %q", d.Name, rel)
				}
			}
			f := d.DB.MustRelation(j.FromRel)
			if _, ok := f.Schema.Index(j.FromAttr); !ok {
				t.Errorf("%s: join attr %s.%s missing", d.Name, j.FromRel, j.FromAttr)
			}
			to := d.DB.MustRelation(j.ToRel)
			if _, ok := to.Schema.Index(j.ToAttr); !ok {
				t.Errorf("%s: join attr %s.%s missing", d.Name, j.ToRel, j.ToAttr)
			}
		}
		for _, s := range append(append([]SelAttr{}, d.Sel...), append(d.AggKeys, d.AggVals...)...) {
			r, ok := d.DB.Relation(s.Rel)
			if ok {
				_, ok = r.Schema.Index(s.Attr)
			}
			if !ok {
				t.Errorf("%s: selection attr %s.%s missing", d.Name, s.Rel, s.Attr)
			}
		}
	}
}

func TestScaleGrowsData(t *testing.T) {
	small, big := TPCH(1, 7), TPCH(3, 7)
	if big.DB.Size() <= small.DB.Size()*2 {
		t.Errorf("scale 3 (%d) should be ~3x scale 1 (%d)", big.DB.Size(), small.DB.Size())
	}
}

func TestAccessSchemasBuildAndVerify(t *testing.T) {
	for _, d := range datasets(t) {
		as, err := d.AccessSchema()
		if err != nil {
			t.Fatalf("%s: AccessSchema: %v", d.Name, err)
		}
		relCount := len(d.DB.Names())
		if as.Size() != relCount+len(d.Ladders) {
			t.Errorf("%s: ladders = %d, want %d (At) + %d", d.Name, as.Size(), relCount, len(d.Ladders))
		}
		// Conformance D |= A (expensive; small scales only).
		if err := as.Verify(d.DB); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestGenerateSPCKnobs(t *testing.T) {
	for _, d := range datasets(t) {
		for nProd := 0; nProd <= 2; nProd++ {
			for _, nSel := range []int{3, 5, 7} {
				e, err := d.Generate(Spec{Class: GenSPC, NSel: nSel, NProd: nProd}, 99)
				if err != nil {
					t.Fatalf("%s: Generate(sel=%d, prod=%d): %v", d.Name, nSel, nProd, err)
				}
				if _, _, err := query.Validate(e, d.DB); err != nil {
					t.Fatalf("%s: invalid query: %v\n%s", d.Name, err, query.Render(e))
				}
				if got := query.NumProducts(e); got != nProd {
					t.Errorf("%s: #-prod = %d, want %d", d.Name, got, nProd)
				}
				spc := e.(*query.SPC)
				constPreds := 0
				for _, p := range spc.Preds {
					if !p.Join {
						constPreds++
					}
				}
				if constPreds != nSel {
					t.Errorf("%s: #-sel = %d, want %d", d.Name, constPreds, nSel)
				}
			}
		}
	}
}

func TestGenerateRAAndDiffCount(t *testing.T) {
	d := TPCH(1, 5)
	for nDiff := 0; nDiff <= 3; nDiff++ {
		e, err := d.Generate(Spec{Class: GenRA, NSel: 4, NProd: 1, NDiff: nDiff}, 17)
		if err != nil {
			t.Fatalf("Generate RA: %v", err)
		}
		if _, _, err := query.Validate(e, d.DB); err != nil {
			t.Fatalf("invalid RA query: %v", err)
		}
		if nDiff == 0 {
			if _, ok := e.(*query.Union); !ok {
				t.Errorf("nDiff=0 should yield a union, got %T", e)
			}
		} else {
			diffs := 0
			var walk func(x query.Expr)
			walk = func(x query.Expr) {
				switch q := x.(type) {
				case *query.Diff:
					diffs++
					walk(q.L)
					walk(q.R)
				case *query.Union:
					walk(q.L)
					walk(q.R)
				}
			}
			walk(e)
			if diffs != nDiff {
				t.Errorf("nDiff = %d, want %d", diffs, nDiff)
			}
		}
	}
}

func TestGenerateAggregates(t *testing.T) {
	for _, d := range datasets(t) {
		for _, agg := range []query.AggKind{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax} {
			e, err := d.Generate(Spec{Class: GenAggSPC, NSel: 3, NProd: 1, Agg: agg}, 31)
			if err != nil {
				t.Fatalf("%s %v: %v", d.Name, agg, err)
			}
			g, ok := e.(*query.GroupBy)
			if !ok {
				t.Fatalf("%s: expected GroupBy, got %T", d.Name, e)
			}
			if g.Agg != agg {
				t.Errorf("agg = %v, want %v", g.Agg, agg)
			}
			if _, _, err := query.Validate(e, d.DB); err != nil {
				t.Fatalf("%s: invalid aggregate query: %v", d.Name, err)
			}
		}
	}
}

func TestWorkloadMix(t *testing.T) {
	d := TPCH(1, 5)
	qs, err := d.Workload(30, 123)
	if err != nil {
		t.Fatalf("Workload: %v", err)
	}
	if len(qs) != 30 {
		t.Fatalf("got %d queries", len(qs))
	}
	aggs, ras, spcs := 0, 0, 0
	for _, q := range qs {
		if _, _, err := query.Validate(q, d.DB); err != nil {
			t.Fatalf("workload query invalid: %v", err)
		}
		switch query.Classify(q) {
		case query.ClassAggr:
			aggs++
		case query.ClassRA:
			ras++
		default:
			spcs++
		}
	}
	// 30% aggregates per the paper's setup.
	if aggs != 9 {
		t.Errorf("aggregates = %d, want 9 of 30", aggs)
	}
	if ras == 0 || spcs == 0 {
		t.Errorf("mix missing classes: RA=%d SPC=%d", ras, spcs)
	}
}

func TestWorkloadQueriesHaveAnswersSometimes(t *testing.T) {
	// Sanity: generated queries aren't all trivially empty — constants are
	// drawn from the data so a decent fraction must return rows.
	d := TPCH(1, 5)
	qs, err := d.Workload(20, 77)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, q := range qs {
		res, err := query.Evaluate(d.DB, q)
		if err != nil {
			t.Fatalf("Evaluate: %v\n%s", err, query.Render(q))
		}
		if res.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(qs)/4 {
		t.Errorf("only %d/%d workload queries return answers", nonEmpty, len(qs))
	}
}
