package access

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// assertLadderIdentical compares two ladders observation-for-observation:
// identity, metadata, resolutions, and the Fetch result of every group at
// every level (sample order, tuples and counts). This is the
// byte-identical-Fetch contract the snapshot/restore and batch-apply paths
// promise.
func assertLadderIdentical(t *testing.T, label string, a, b *Ladder) {
	t.Helper()
	if a.RelName != b.RelName || fmt.Sprint(a.X) != fmt.Sprint(b.X) || fmt.Sprint(a.Y) != fmt.Sprint(b.Y) {
		t.Fatalf("%s: ladder identity differs: %s(%v→%v) vs %s(%v→%v)",
			label, a.RelName, a.X, a.Y, b.RelName, b.X, b.Y)
	}
	if a.MaxK() != b.MaxK() || a.NumGroups() != b.NumGroups() ||
		a.MaxGroupDistinct() != b.MaxGroupDistinct() || a.IndexSize() != b.IndexSize() {
		t.Fatalf("%s: %s metadata differs: (maxK %d groups %d N %d size %d) vs (maxK %d groups %d N %d size %d)",
			label, a.RelName, a.MaxK(), a.NumGroups(), a.MaxGroupDistinct(), a.IndexSize(),
			b.MaxK(), b.NumGroups(), b.MaxGroupDistinct(), b.IndexSize())
	}
	for k := 0; k <= a.MaxK(); k++ {
		ra, rb := a.Resolution(k), b.Resolution(k)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: %s resolution[%d][%d] = %g vs %g", label, a.RelName, k, i, ra[i], rb[i])
			}
		}
	}
	for _, x := range a.GroupXs() {
		if ea, eb := a.ExactLevelFor(x), b.ExactLevelFor(x); ea != eb {
			t.Fatalf("%s: %s group %v exact level %d vs %d", label, a.RelName, x, ea, eb)
		}
		for k := 0; k <= a.MaxK(); k++ {
			sa, sb := fetchRows(a, x, k), fetchRows(b, x, k)
			if len(sa) != len(sb) {
				t.Fatalf("%s: %s group %v level %d: %d vs %d samples", label, a.RelName, x, k, len(sa), len(sb))
			}
			for i := range sa {
				if sa[i].Count != sb[i].Count || sa[i].Y.Key() != sb[i].Y.Key() {
					t.Fatalf("%s: %s group %v level %d sample %d: (%v,%d) vs (%v,%d)",
						label, a.RelName, x, k, i, sa[i].Y, sa[i].Count, sb[i].Y, sb[i].Count)
				}
			}
		}
	}
}

// assertSchemaIdentical compares two schemas ladder by ladder.
func assertSchemaIdentical(t *testing.T, label string, a, b *Schema) {
	t.Helper()
	if len(a.Ladders) != len(b.Ladders) {
		t.Fatalf("%s: %d vs %d ladders", label, len(a.Ladders), len(b.Ladders))
	}
	for i := range a.Ladders {
		assertLadderIdentical(t, label, a.Ladders[i], b.Ladders[i])
	}
}

// randomOps generates a deterministic mixed op sequence over exampleDB,
// deliberately hammering a handful of hot poi groups (repeat inserts and
// deletes of the same (type, city) X-values) so the batch path's one-rebuild
// amortisation is actually exercised.
func randomOps(rng *rand.Rand, n int) []Op {
	types := []string{"hotel", "bar", "cafe"}
	cities := []string{"NYC", "Chicago", "Boston", "Austin"}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1: // insert a poi into a hot group
			ops = append(ops, Op{Kind: OpInsert, Rel: "poi", Tuple: relation.Tuple{
				relation.String(fmt.Sprintf("new-addr-%d", i)),
				relation.String(types[rng.Intn(2)]), // hot: only two types
				relation.String(cities[rng.Intn(2)]),
				relation.Float(20 + rng.Float64()*300),
			}})
		case 2: // insert a friend edge
			ops = append(ops, Op{Kind: OpInsert, Rel: "friend", Tuple: relation.Tuple{
				relation.Int(int64(rng.Intn(40))), relation.Int(int64(rng.Intn(40))),
			}})
		default: // delete a (possibly missing) previously inserted poi
			ops = append(ops, Op{Kind: OpDelete, Rel: "poi", Tuple: relation.Tuple{
				relation.String(fmt.Sprintf("new-addr-%d", rng.Intn(n))),
				relation.String(types[rng.Intn(2)]),
				relation.String(cities[rng.Intn(2)]),
				relation.Float(0),
			}})
		}
	}
	return ops
}

// assertBatchMatchesSequential applies ops one at a time to one copy of the
// fixture and as a single batch to another, and requires the same applied
// flags, the same error position, the same relations tuple for tuple and the
// same ladders. An op that fails ends both runs: the state compared is that
// of the prefix before it.
func assertBatchMatchesSequential(t *testing.T, fixture func(*testing.T) (*relation.Database, *Schema), ops []Op) {
	t.Helper()
	dbSeq, seq := fixture(t)
	dbBatch, batch := fixture(t)

	wantApplied := make([]bool, len(ops))
	var wantErr error
	for i, op := range ops {
		one, err := seq.Apply(dbSeq, []Op{op})
		if err != nil {
			wantErr = err
			break
		}
		wantApplied[i] = one[0]
	}
	applied, err := batch.Apply(dbBatch, ops)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("batch apply error = %v, sequential says %v", err, wantErr)
	}
	for i := range applied {
		if applied[i] != wantApplied[i] {
			t.Errorf("op %d: applied %v, sequential says %v", i, applied[i], wantApplied[i])
		}
	}
	for _, name := range dbSeq.Names() {
		a, b := dbSeq.MustRelation(name).Tuples, dbBatch.MustRelation(name).Tuples
		if len(a) != len(b) {
			t.Fatalf("%s: |R| diverged: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("%s: tuple %d is %v sequentially, %v batched", name, i, a[i], b[i])
			}
		}
	}
	assertSchemaIdentical(t, "batch-vs-sequential", seq, batch)
	if err := batch.Verify(dbBatch); err != nil {
		t.Errorf("conformance after batch: %v", err)
	}
}

// The batched Apply must leave the database and every ladder in exactly the
// state that applying the operations one at a time produces — the rebuild
// and the delete scans are amortised, the semantics are not.
func TestBatchApplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := randomOps(rng, 120)
	// Deletes of generated tuples rarely match exactly (random price); mix
	// in guaranteed-hit deletes of base tuples.
	poi := exampleDB(t).MustRelation("poi")
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: OpDelete, Rel: "poi", Tuple: poi.Tuples[i*7].Clone()})
	}
	t.Run("random ops on hot groups", func(t *testing.T) {
		assertBatchMatchesSequential(t, func(t *testing.T) (*relation.Database, *Schema) {
			db := exampleDB(t)
			return db, maintSchema(t, db)
		}, ops)
	})
	for _, c := range deleteSemanticsCases() {
		t.Run(c.name, func(t *testing.T) {
			assertBatchMatchesSequential(t, kvFixture, c.ops)
			assertBatchMatchesScan(t, c.ops)
		})
	}
}

// assertBatchMatchesScan applies ops over the kv relation of kvFixture as
// one batch and requires the applied flags and the tuples, in order, that
// the definition gives: an insert appends its tuple, and a delete removes
// the first tuple EqualTuple to it, found by a scan of the relation as it
// stands when the delete's turn comes. An op the batch cannot apply (an
// unknown relation or kind, a bad arity) ends the scan, as it ends the
// batch.
func assertBatchMatchesScan(t *testing.T, ops []Op) {
	t.Helper()
	db, s := kvFixture(t)
	want := append([]relation.Tuple(nil), db.MustRelation("kv").Tuples...)
	wantApplied := make([]bool, len(ops))
scan:
	for i, op := range ops {
		switch {
		case op.Rel != "kv" || len(op.Tuple) != 2:
			break scan
		case op.Kind == OpInsert:
			want, wantApplied[i] = append(want, op.Tuple), true
		case op.Kind == OpDelete:
			for j, tup := range want {
				if tup.EqualTuple(op.Tuple) {
					want, wantApplied[i] = slices.Delete(want, j, j+1), true
					break
				}
			}
		default:
			break scan
		}
	}
	applied, _ := s.Apply(db, ops)
	if !slices.Equal(applied, wantApplied) {
		t.Fatalf("applied %v, the scan says %v", applied, wantApplied)
	}
	got := db.MustRelation("kv").Tuples
	if len(got) != len(want) {
		t.Fatalf("%d tuples, the scan leaves %d", len(got), len(want))
	}
	for i := range want {
		if !slices.EqualFunc(got[i], want[i], identicalValue) {
			t.Fatalf("tuple %d is %v, the scan leaves %v (compared kind for kind)", i, got[i], want[i])
		}
	}
}

// kvFixture is a two-column relation with duplicate rows, under At and a
// k → v ladder: small enough to read every case below off the page.
func kvFixture(t *testing.T) (*relation.Database, *Schema) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("kv",
		relation.Attr("k", relation.KindInt, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
	))
	const big = int64(1e15) // from here on Int and Float are Equal but not KeyEqual
	r.MustAppend(
		kv(1, relation.Float(5)),
		kv(2, relation.Float(7)),
		kv(1, relation.Float(5)),
		kv(3, relation.Int(3)),
		kv(1, relation.Float(5)),
		kv(2, relation.Float(8)),
		kv(1, relation.Float(5)),
		kv(big, relation.Int(big)),
		kv(3, relation.Float(4)),
	)
	db.MustAdd(r)
	s, err := BuildAt(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Extend(db, "kv", []string{"k"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func kv(k int64, v relation.Value) relation.Tuple { return relation.Tuple{relation.Int(k), v} }

type batchCase struct {
	name string
	ops  []Op
}

// deleteSemanticsCases are the batches one pass per relation and per group
// could get wrong where one scan per delete could not.
func deleteSemanticsCases() []batchCase {
	const big = int64(1e15)
	ins := func(t relation.Tuple) Op { return Op{Kind: OpInsert, Rel: "kv", Tuple: t} }
	del := func(t relation.Tuple) Op { return Op{Kind: OpDelete, Rel: "kv", Tuple: t} }
	return []batchCase{
		{"insert then delete the same tuple", []Op{
			ins(kv(9, relation.Float(1))), del(kv(9, relation.Float(1))),
		}},
		{"delete before the insert that would match misses", []Op{
			del(kv(9, relation.Float(1))), ins(kv(9, relation.Float(1))),
		}},
		{"a delete takes the stored duplicate, not the one inserted earlier in the batch", []Op{
			ins(kv(2, relation.Float(7))), del(kv(2, relation.Float(7))), del(kv(2, relation.Float(7))), del(kv(2, relation.Float(7))),
		}},
		{"k of m duplicate rows", []Op{
			del(kv(1, relation.Float(5))), del(kv(1, relation.Float(5))), del(kv(1, relation.Float(5))),
		}},
		{"more deletes than duplicates", []Op{
			del(kv(1, relation.Float(5))), del(kv(1, relation.Float(5))), del(kv(1, relation.Float(5))),
			del(kv(1, relation.Float(5))), del(kv(1, relation.Float(5))), ins(kv(1, relation.Float(5))),
		}},
		{"Float query tuple against a stored Int", []Op{
			del(kv(3, relation.Float(3))),
		}},
		{"Float query tuple against a stored Int the indices key differently", []Op{
			del(relation.Tuple{relation.Float(float64(big)), relation.Float(float64(big))}),
		}},
		{"a missing tuple between two hits", []Op{
			del(kv(2, relation.Float(7))), del(kv(2, relation.Float(7.5))), del(kv(2, relation.Float(8))),
		}},
		{"empty a group and refill it", []Op{
			del(kv(2, relation.Float(7))), del(kv(2, relation.Float(8))), ins(kv(2, relation.Float(9))), del(kv(2, relation.Float(9))), ins(kv(2, relation.Float(6))),
		}},
		{"NaN equals every number", []Op{
			ins(kv(4, relation.Float(math.NaN()))), del(kv(4, relation.Float(2))), del(kv(3, relation.Float(math.NaN()))),
		}},
		{"NaN in the first column equals every first value", []Op{
			del(relation.Tuple{relation.Float(math.NaN()), relation.Float(8)}),
			ins(relation.Tuple{relation.Float(math.NaN()), relation.Float(6)}), del(kv(12, relation.Float(6))),
		}},
		{"NaN in a later column only", []Op{
			del(kv(2, relation.Float(math.NaN()))), del(kv(12, relation.Float(math.NaN()))),
			ins(kv(5, relation.Float(math.NaN()))), del(kv(5, relation.Float(1))),
		}},
		{"Int 3 against Float 3 in the first column", []Op{
			del(relation.Tuple{relation.Float(3), relation.Float(4)}),
			ins(relation.Tuple{relation.Float(6), relation.Float(1)}), del(kv(6, relation.Float(1))),
		}},
		{"1e15 as Int against Float in the first column", []Op{
			del(relation.Tuple{relation.Float(float64(big)), relation.Int(big)}),
			ins(relation.Tuple{relation.Float(float64(big)), relation.Float(2)}), del(kv(big, relation.Float(2))),
		}},
		{"−0 against +0 in the first column", []Op{
			ins(relation.Tuple{relation.Float(math.Copysign(0, -1)), relation.Float(1)}), del(kv(0, relation.Float(1))),
			ins(kv(0, relation.Float(2))), del(relation.Tuple{relation.Float(math.Copysign(0, -1)), relation.Float(2)}),
		}},
		{"equal first values with different tails", []Op{
			del(kv(1, relation.Float(6))), del(kv(2, relation.Float(8))), del(kv(3, relation.Float(3))), del(kv(1, relation.Float(5))),
		}},
		{"a delete of a tuple inserted earlier in the batch, its first value new", []Op{
			ins(kv(11, relation.Float(2))), del(kv(2, relation.Float(7))), del(kv(11, relation.Float(2))), del(kv(11, relation.Float(2))),
		}},
		{"an unknown relation mid-batch leaves the prefix applied", []Op{
			ins(kv(9, relation.Float(1))), del(kv(1, relation.Float(5))),
			{Kind: OpInsert, Rel: "nope", Tuple: kv(0, relation.Float(0))},
			del(kv(2, relation.Float(7))),
		}},
		{"a bad arity mid-batch leaves the prefix applied", []Op{
			del(kv(2, relation.Float(8))), ins(kv(2, relation.Float(8))), ins(relation.Tuple{relation.Int(1)}), ins(kv(7, relation.Float(7))),
		}},
		{"an unknown kind mid-batch leaves the prefix applied", []Op{
			del(kv(3, relation.Float(4))), {Kind: 9, Rel: "kv", Tuple: kv(1, relation.Float(5))}, del(kv(1, relation.Float(5))),
		}},
	}
}

// A batch that empties a group and one that recreates it afterwards must
// both settle correctly at flush time.
func TestBatchApplyEmptiesAndRecreatesGroups(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("kv",
		relation.Attr("k", relation.KindInt, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
	))
	r.MustAppend(
		relation.Tuple{relation.Int(1), relation.Float(5)},
		relation.Tuple{relation.Int(2), relation.Float(7)},
	)
	db.MustAdd(r)
	s := &Schema{}
	l, err := s.Extend(db, "kv", []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpDelete, Rel: "kv", Tuple: relation.Tuple{relation.Int(1), relation.Float(5)}},
		{Kind: OpDelete, Rel: "kv", Tuple: relation.Tuple{relation.Int(2), relation.Float(7)}},
		{Kind: OpInsert, Rel: "kv", Tuple: relation.Tuple{relation.Int(2), relation.Float(9)}},
	}
	if _, err := s.Apply(db, ops); err != nil {
		t.Fatal(err)
	}
	if l.NumGroups() != 1 {
		t.Errorf("groups = %d, want 1 (k=1 emptied, k=2 recreated)", l.NumGroups())
	}
	if got := fetchRows(l, relation.Tuple{relation.Int(1)}, 0); got != nil {
		t.Errorf("emptied group still fetches %v", got)
	}
	got := fetchRows(l, relation.Tuple{relation.Int(2)}, l.MaxK())
	if len(got) != 1 {
		t.Fatalf("recreated group fetch = %v", got)
	}
	if v, _ := got[0].Y[0].AsFloat(); v != 9 {
		t.Errorf("recreated group holds %v, want 9", got[0].Y[0])
	}
	if err := s.Verify(db); err != nil {
		t.Errorf("conformance: %v", err)
	}
}

// rowsEqualHash must hash every row of a block exactly as equalHash hashes
// its values, whatever each column holds: typed ints (beyond 2^53 too),
// typed floats (−0, +0, NaN, ±Inf), typed strings (the empty one too),
// and nullable or mixed Int/Float/String columns, which take the Value
// path. An int and its float64 image hash alike across typed columns.
func TestRowsEqualHashMatchesEqualHash(t *testing.T) {
	const big = int64(1) << 53
	ints := []int64{0, 1, -1, big, big + 1, -big - 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, math.NaN(), math.Inf(1), math.Inf(-1), float64(big), 0.5}
	strs := []string{"", "a", "ab", "\x00"}
	cols := []func(rng *rand.Rand) relation.Value{
		func(rng *rand.Rand) relation.Value { return relation.Int(ints[rng.Intn(len(ints))]) },
		func(rng *rand.Rand) relation.Value { return relation.Float(floats[rng.Intn(len(floats))]) },
		func(rng *rand.Rand) relation.Value { return relation.String(strs[rng.Intn(len(strs))]) },
		func(rng *rand.Rand) relation.Value { // nullable int
			if rng.Intn(4) == 0 {
				return relation.Null()
			}
			return relation.Int(ints[rng.Intn(len(ints))])
		},
		func(rng *rand.Rand) relation.Value { // nullable string
			if rng.Intn(4) == 0 {
				return relation.Null()
			}
			return relation.String(strs[rng.Intn(len(strs))])
		},
		func(rng *rand.Rand) relation.Value { // mixed kinds
			switch rng.Intn(4) {
			case 0:
				return relation.Int(ints[rng.Intn(len(ints))])
			case 1:
				return relation.Float(floats[rng.Intn(len(floats))])
			case 2:
				return relation.String(strs[rng.Intn(len(strs))])
			}
			return relation.Null()
		},
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(4)
		kinds := make([]int, width)
		for c := range kinds {
			kinds[c] = rng.Intn(len(cols))
		}
		n := 1 + rng.Intn(40)
		b := relation.NewBlock(width)
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, width)
			for c, k := range kinds {
				row[c] = cols[k](rng)
			}
			b.AppendTuple(row)
		}
		first := rng.Intn(n)
		hs, ok := make([]uint64, n-first), make([]bool, n-first)
		rowsEqualHash(b, first, hs, ok)
		for j := range hs {
			wh, wok := equalHash(width, func(c int) relation.Value { return b.Value(first+j, c) })
			if ok[j] != wok || (wok && hs[j] != wh) {
				t.Fatalf("trial %d row %d %v (columns %v): rowsEqualHash = (%#x, %v), equalHash = (%#x, %v)",
					trial, first+j, b.Tuple(first+j), kinds, hs[j], ok[j], wh, wok)
			}
		}
	}
	// Typed ints hash as the typed floats of their images.
	ib, fb := relation.NewBlock(1), relation.NewBlock(1)
	for _, i := range ints {
		ib.AppendTuple(relation.Tuple{relation.Int(i)})
		fb.AppendTuple(relation.Tuple{relation.Float(float64(i))})
	}
	ih, iok := make([]uint64, len(ints)), make([]bool, len(ints))
	fh, fok := make([]uint64, len(ints)), make([]bool, len(ints))
	rowsEqualHash(ib, 0, ih, iok)
	rowsEqualHash(fb, 0, fh, fok)
	for j, i := range ints {
		if !iok[j] || !fok[j] || ih[j] != fh[j] {
			t.Fatalf("int %d hashes (%#x, %v), its float image (%#x, %v)", i, ih[j], iok[j], fh[j], fok[j])
		}
	}
}
