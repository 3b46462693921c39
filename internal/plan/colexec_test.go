package plan

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/access"
	"repro/internal/chase"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// recordingFetcher resolves batches in process and keeps a copy of every
// batch's X-values: xs is the run's scratch, valid only during the call.
type recordingFetcher struct{ batches [][]relation.Tuple }

func (f *recordingFetcher) FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	batch := make([]relation.Tuple, len(xs))
	for i, x := range xs {
		batch[i] = slices.Clone(x)
	}
	f.batches = append(f.batches, batch)
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
	leaf, err := query.Resolve(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pid, city := attrIdx(leaf, 0, "pid"), attrIdx(leaf, 0, "city")
	s := &chase.Step{Ladder: l, K: l.MaxK(), X: []chase.Source{{Attr: pid}}}
	colOf := [][]int{{-1, -1}}
	colOf[0][pid] = 0
	read := []bool{false, false}
	read[pid], read[city] = true, true
	sl, err := buildStepLayout(leaf, []*relation.Schema{prefix}, colOf, s, 0, read)
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
	sc := &runScratch{atoms: []*blockAtom{in}}
	stats := &Stats{}
	if err := applyStepBlocks(context.Background(), sc, sl, s, 0, s.K, ExecOpts{Budget: math.MaxInt, Fetcher: f}, stats); err != nil {
		t.Fatal(err)
	}
	atoms := sc.atoms
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

// A warm fetch step allocates only what the fetcher returns — the batch's
// two slices of level views — and the same few times at 10 and at 1000
// distinct X-values: its enumeration tables, X-value slab, visit list and
// output block are the scratch's, grown by the first run.
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
		sc := &runScratch{atoms: make([]*blockAtom, 1)}
		o := ExecOpts{Budget: math.MaxInt, Fetcher: localFetcher{}}
		ctx := context.Background()
		return testing.AllocsPerRun(20, func() {
			sc.atoms[0] = in
			if err := applyStepBlocks(ctx, sc, sl, s, 0, s.K, o, &Stats{}); err != nil {
				t.Fatal(err)
			}
			if sc.atoms[0].block.Rows() != n {
				t.Fatalf("%d rows from %d pids", sc.atoms[0].block.Rows(), n)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	const fixed = 2 // Ladder.FetchBatchBlocks: the views and their pointers
	if small != large || (!raceEnabled && large > fixed) {
		t.Fatalf("a warm step allocates %.0f times at 10 distinct X-values, %.0f at 1000; want the same count, at most %d", small, large, fixed)
	}
}

// Evaluating a leaf on a warm scratch allocates only its answer, and the
// same few times at ~100 and ~10,000 fetched rows: over the poi block of a
// single-atom query with two constant selections, the Result, its
// relation, value arena, tuples and weights. The typed kernels run without
// closures or per-selection buffers, and the selection vector and gathered
// environment are the scratch's.
func TestEvaluateAllocsGrowOnlyWithSelection(t *testing.T) {
	q := &query.SPC{
		Atoms: []query.Atom{{Rel: "poi", Alias: "h"}},
		Preds: []query.Pred{
			query.EqC(query.C("h", "type"), relation.String("hotel")),
			query.LeC(query.C("h", "price"), relation.Float(200)),
		},
		Output: []query.Col{query.C("h", "address"), query.C("h", "price")},
	}
	allocs := func(nPOI int) float64 {
		db := fixture.Example1(7, 10, nPOI)
		as, err := fixture.SchemaA0(db)
		if err != nil {
			t.Fatal(err)
		}
		p := NewBounded(mustChase(t, q, as, db, db.Size()), db.Size())
		lay, err := p.layoutFor()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sc := new(runScratch)
		atoms, _, err := executeFetchBlocks(ctx, p, lay, ExecOpts{Budget: p.Budget, Fetcher: localFetcher{}}, sc)
		if err != nil {
			t.Fatal(err)
		}
		rows := atoms[0].block.Rows()
		var res *Result
		allocs := testing.AllocsPerRun(20, func() {
			if res, err = evaluateColumnar(ctx, p, lay, atoms, sc); err != nil {
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
		t.Logf("%d fetched rows: %.0f allocations", rows, allocs)
		return allocs
	}
	small, large := allocs(100), allocs(10000)
	if small != large {
		t.Fatalf("evaluation allocates %.0f times at ~100 rows, %.0f at ~10,000; want the same count", small, large)
	}
	const fixed = 5
	if !raceEnabled && large > fixed {
		t.Fatalf("evaluation allocates %.0f times; want at most %d", large, fixed)
	}
}

// xsCounter resolves batches in process and counts their X-values,
// without allocating a byte of its own.
type xsCounter struct{ xs int }

func (f *xsCounter) FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	f.xs += len(xs)
	return localFetcher{}.FetchBatchBlocks(ctx, l, xs, k)
}

// A warm run allocates its answer and little else. On the paper's join
// query Q1, the bytes a run on a warm scratch allocates are at most the
// answer's value arena, tuple headers and weights, plus the level views
// the in-process fetcher returns (a view and a pointer per X-value), plus
// a constant for the Result and Relation headers.
func TestExecuteWarmBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	db, as := setup(t)
	p := NewBounded(mustChase(t, fixture.Q1(3, 200), as, db, db.Size()), db.Size())
	ctx := context.Background()
	f := &xsCounter{}
	o := ExecOpts{Budget: p.Budget, Fetcher: f}
	sc := new(runScratch)
	var res *Result
	bytes := func() uint64 {
		var before, after runtime.MemStats
		f.xs = 0
		runtime.ReadMemStats(&before)
		var err error
		res, err = executeOn(ctx, p, o, sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	bytes() // grows the scratch
	// The fewest bytes of several warm runs: a collection during one may
	// have cost it a buffer.
	warm := bytes()
	for range 9 {
		warm = min(warm, bytes())
	}
	n := uint64(res.Rel.Len())
	if n == 0 || len(p.Chase.Steps) < 3 {
		t.Fatalf("%d answers over %d fetch steps; want a join with answers", n, len(p.Chase.Steps))
	}
	const fixed = 256 // Result, Relation, rounding to size classes
	answer := n*uint64(len(res.Rel.Tuples[0]))*uint64(unsafe.Sizeof(relation.Value{})) +
		n*uint64(unsafe.Sizeof(relation.Tuple{})) + n*uint64(unsafe.Sizeof(0))
	views := uint64(f.xs) * uint64(unsafe.Sizeof(access.LevelBlock{})+unsafe.Sizeof(&access.LevelBlock{}))
	if warm > answer+views+fixed {
		t.Fatalf("a warm run allocates %d bytes; want at most %d (answer of %d rows) + %d (level views of %d X-values) + %d",
			warm, answer, n, views, f.xs, fixed)
	}
	t.Logf("a warm run allocates %d bytes: answer %d, level views %d", warm, answer, views)
}

// A run's scratch goes back to the pool unless it keeps more than
// maxPooledBytes. A warm Q1 scratch is pooled and handed out again; the
// same scratch with its X-value slab grown past the bound, as a high α
// over a large D grows it, is dropped.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	for range maxIdleScratches {
		scratchPool.Get() // empty the pool
	}
	db, as := setup(t)
	p := NewBounded(mustChase(t, fixture.Q1(3, 200), as, db, db.Size()), db.Size())
	sc := new(runScratch)
	if _, err := executeOn(context.Background(), p, ExecOpts{Budget: p.Budget}, sc); err != nil {
		t.Fatal(err)
	}
	putScratch(sc)
	if got := scratchPool.Get(); got != sc {
		t.Fatalf("a scratch of %d bytes was not pooled; want every one of at most %d", sc.retainedBytes(), maxPooledBytes)
	}
	sc.slab = slices.Grow(sc.slab, maxPooledBytes/int(unsafe.Sizeof(relation.Value{}))+1)
	putScratch(sc)
	for range maxIdleScratches {
		if scratchPool.Get() == sc {
			t.Fatalf("the pool returned a scratch of %d bytes; want at most %d", sc.retainedBytes(), maxPooledBytes)
		}
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
