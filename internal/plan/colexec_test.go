package plan

import (
	"context"
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/chase"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// recordingFetcher resolves batches in process and keeps every batch's
// X-values.
type recordingFetcher struct{ batches [][]relation.Tuple }

func (f *recordingFetcher) FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	f.batches = append(f.batches, xs)
	return localFetcher{}.FetchBatchBlocks(ctx, l, xs, k)
}

// pidStep is one fetch step by person(pid → city) that extends a person
// atom whose rows so far hold only the given pids: the step's X is the
// row's own pid (xOwn). It returns the step, its layout and the atom.
func pidStep(t testing.TB, db *relation.Database, as *access.Schema, pids []relation.Value) (*chase.Step, *stepLayout, *blockAtom) {
	t.Helper()
	l := as.Find("person", []string{"pid"}, []string{"city"})
	if l == nil {
		t.Fatal("fixture schema lacks person(pid → city)")
	}
	q := &query.SPC{
		Atoms:  []query.Atom{{Rel: "person", Alias: "p"}},
		Output: []query.Col{query.C("p", "pid"), query.C("p", "city")},
	}
	prefix := relation.MustSchema("p", db.MustRelation("person").Schema.Attrs[0])
	s := &chase.Step{Ladder: l, K: l.MaxK(), X: []chase.Source{{Attr: "pid"}}}
	sl, err := buildStepLayout(q, db, []*relation.Schema{prefix}, s, 0, map[string]bool{"pid": true, "city": true})
	if err != nil {
		t.Fatal(err)
	}
	if sl.route[0] != xOwn {
		t.Fatalf("pid route %d, want own", sl.route[0])
	}
	in := &blockAtom{schema: prefix, block: relation.NewBlock(1), weights: make([]int, len(pids))}
	for i, v := range pids {
		in.block.AppendTuple(relation.Tuple{v})
		in.weights[i] = 1
	}
	return s, sl, in
}

// X-values equal under the canonical encoding are one batch entry: Int(1)
// and Float(1) fold into the entry first seen, and both rows extend with
// the same level.
func TestFetchStepFoldsIntAndFloatXValues(t *testing.T) {
	db, as := setup(t)
	pids := []relation.Value{relation.Int(1), relation.Float(1), relation.Int(2), relation.Float(2), relation.Int(1)}
	s, sl, in := pidStep(t, db, as, pids)
	f := &recordingFetcher{}
	atoms := []*blockAtom{in}
	stats := &Stats{}
	if err := applyStepBlocks(context.Background(), atoms, sl, s, 0, s.K, ExecOpts{Budget: math.MaxInt, Fetcher: f}, stats); err != nil {
		t.Fatal(err)
	}
	if len(f.batches) != 1 || len(f.batches[0]) != 2 {
		t.Fatalf("batches %v, want one batch of two X-values", f.batches)
	}
	if xs := f.batches[0]; xs[0][0].Kind() != relation.KindInt || !xs[0][0].KeyEqual(relation.Int(1)) || !xs[1][0].KeyEqual(relation.Int(2)) {
		t.Fatalf("batch %v, want [[1] [2]] with the first-seen Int(1)", xs)
	}
	out := atoms[0].block
	if out.Rows() != len(pids) || stats.Accessed != 2 {
		t.Fatalf("%d rows, %d accessed; want %d rows (one sample per pid), 2 accessed", out.Rows(), stats.Accessed, len(pids))
	}
	city := lookupCol(t, atoms[0].schema, "city")
	if !out.Value(0, city).KeyEqual(out.Value(1, city)) || !out.Value(2, city).KeyEqual(out.Value(3, city)) {
		t.Fatal("Int and Float rows of one pid fetched different levels")
	}
}

func lookupCol(t *testing.T, s *relation.Schema, attr string) int {
	t.Helper()
	ci, ok := s.Index(attr)
	if !ok {
		t.Fatalf("schema %s lacks %s", s.Name, attr)
	}
	return ci
}

// A fetch step allocates per step, not per distinct X-value: from 10 to
// 1000 distinct X-values its allocation count may grow only by the
// doublings of its growing slices (the X-value slab and probe table), a
// logarithmic term.
func TestFetchStepAllocsDoNotGrowWithDistinctX(t *testing.T) {
	db := fixture.Example1(7, 1000, 10)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		pids := make([]relation.Value, n)
		for i := range pids {
			pids[i] = relation.Int(int64(i))
		}
		s, sl, in := pidStep(t, db, as, pids)
		atoms := []*blockAtom{in}
		o := ExecOpts{Budget: math.MaxInt, Fetcher: localFetcher{}}
		ctx := context.Background()
		return testing.AllocsPerRun(20, func() {
			atoms[0] = in
			if err := applyStepBlocks(ctx, atoms, sl, s, 0, s.K, o, &Stats{}); err != nil {
				t.Fatal(err)
			}
			if atoms[0].block.Rows() != n {
				t.Fatalf("%d rows from %d pids", atoms[0].block.Rows(), n)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	// The X-value slab and the probe table's two slices each reallocate
	// O(log n) times as they grow; four allocations per doubling of the
	// distinct count bound them.
	if bound := small + 4*math.Log2(1000.0/10); large > bound {
		t.Fatalf("a step allocates %.0f times at 10 distinct X-values, %.0f at 1000; want at most %.0f", small, large, bound)
	}
	t.Logf("allocations per step: %.0f at 10 distinct X-values, %.0f at 1000", small, large)
}

// Evaluating a leaf allocates per leaf, not per row or per selection: over
// the poi block of a single-atom query with two constant selections, the
// allocations beyond those of growing the selection vector — a NewBlock,
// one gathered column per read attribute, the weights and the answer's
// arena, tuples and relation — are the same at ~100 and ~10,000 fetched
// rows, and few. The typed kernels run without closures or per-selection
// buffers; the vector's appends are the only term that grows (with the
// log of the surviving rows).
func TestEvaluateAllocsGrowOnlyWithSelection(t *testing.T) {
	q := &query.SPC{
		Atoms: []query.Atom{{Rel: "poi", Alias: "h"}},
		Preds: []query.Pred{
			query.EqC(query.C("h", "type"), relation.String("hotel")),
			query.LeC(query.C("h", "price"), relation.Float(200)),
		},
		Output: []query.Col{query.C("h", "address"), query.C("h", "price")},
	}
	extra := func(nPOI int) float64 {
		db := fixture.Example1(7, 10, nPOI)
		as, err := fixture.SchemaA0(db)
		if err != nil {
			t.Fatal(err)
		}
		p := NewBounded(mustChase(t, q, as, db, db.Size()), db.Size())
		lay, err := p.layoutFor(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		atoms, _, err := executeFetchBlocks(ctx, p, lay, ExecOpts{Budget: p.Budget, Fetcher: localFetcher{}})
		if err != nil {
			t.Fatal(err)
		}
		rows := atoms[0].block.Rows()
		var res *Result
		allocs := testing.AllocsPerRun(20, func() {
			if res, err = evaluateColumnar(ctx, p, lay, atoms); err != nil {
				t.Fatal(err)
			}
		})
		// The first kernel keeps the hotels; the second narrows them.
		typeCol := lookupCol(t, atoms[0].schema, "type")
		hotels := 0
		for i := 0; i < rows; i++ {
			if s, _ := atoms[0].block.Value(i, typeCol).AsString(); s == "hotel" {
				hotels++
			}
		}
		if rows < nPOI || res.Rel.Len() == 0 || res.Rel.Len() >= hotels || hotels >= rows {
			t.Fatalf("%d POIs: %d fetched rows, %d hotels, %d answers; want both selections to filter", nPOI, rows, hotels, res.Rel.Len())
		}
		growth := testing.AllocsPerRun(20, func() {
			var sel []int32
			for i := 0; i < hotels; i++ {
				sel = append(sel, int32(i))
			}
		})
		t.Logf("%d fetched rows: %.0f allocations, %.0f of them growing the selection vector to %d rows", rows, allocs, growth, hotels)
		return allocs - growth
	}
	small, large := extra(100), extra(10000)
	if small != large {
		t.Fatalf("evaluation allocates %.0f times beyond its selection vector at ~100 rows, %.0f at ~10,000; want the same count", small, large)
	}
	const fixed = 11
	if !raceEnabled && large > fixed {
		t.Fatalf("evaluation allocates %.0f times beyond its selection vector; want at most %d", large, fixed)
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
