package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testValues is a value pool covering every kind and the canonical-encoding
// edge cases (integral floats below/above the 1e15 unification cutoff, NaN,
// ±Inf, ±0, empty strings, separator bytes).
func testValues() []Value {
	return []Value{
		Null(),
		Int(0), Int(3), Int(-7), Int(math.MaxInt64), Int(math.MinInt64),
		Float(3), Float(3.5), Float(-0.0), Float(1e300), Float(1e15), Float(1e15 - 2),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		String(""), String("hotel"), String("a\x1fb"), String("a\x1eb"), String("日本"),
	}
}

func randTuple(rng *rand.Rand, vals []Value, width int) Tuple {
	t := make(Tuple, width)
	for i := range t {
		t[i] = vals[rng.Intn(len(vals))]
	}
	return t
}

// TestColumnRoundTrip pins that Append/Value round-trips every value
// exactly (kind preserved, not just canonical equality), across homogeneous,
// null-bearing and mixed columns.
func TestColumnRoundTrip(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(150)
		in := make([]Value, n)
		var c Column
		for i := range in {
			in[i] = vals[rng.Intn(len(vals))]
			c.Append(in[i])
		}
		if c.Len() != n {
			t.Fatalf("Len = %d, want %d", c.Len(), n)
		}
		for i, want := range in {
			got := c.Value(i)
			if got != want && !(math.IsNaN(want.f) && math.IsNaN(got.f) && got.kind == KindFloat) {
				t.Fatalf("trial %d row %d: got %#v want %#v (mixed=%v kind=%v)", trial, i, got, want, c.Mixed(), c.Kind())
			}
			if c.IsNull(i) != want.IsNull() {
				t.Fatalf("trial %d row %d: IsNull mismatch", trial, i)
			}
		}
	}
}

// TestColumnBulkOpsMatchPerRow pins that AppendRange, AppendRepeat and
// AppendIndexes (from a random base row) produce exactly the rows the
// per-row Append path would, over homogeneous columns, homogeneous columns
// with nulls, and mixed ones.
func TestColumnBulkOpsMatchPerRow(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		var src Column
		n := 1 + rng.Intn(100)
		mode := trial % 3 // 0 homogeneous, 1 homogeneous with nulls, 2 mixed
		base := vals[rng.Intn(len(vals))]
		for i := 0; i < n; i++ {
			switch {
			case mode == 1 && rng.Intn(4) == 0:
				src.Append(Null())
			case mode < 2:
				src.Append(base)
			default:
				src.Append(vals[rng.Intn(len(vals))])
			}
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		from := rng.Intn(n)
		idx := make([]int32, rng.Intn(2*n))
		for i := range idx {
			idx[i] = int32(rng.Intn(n - from))
		}
		rep := vals[rng.Intn(len(vals))]
		repN := rng.Intn(10)

		var fast, slow Column
		seed := vals[rng.Intn(len(vals))]
		fast.Append(seed)
		slow.Append(seed)

		fast.AppendRange(&src, lo, hi)
		for i := lo; i < hi; i++ {
			slow.Append(src.Value(i))
		}
		fast.AppendRepeat(rep, repN)
		for j := 0; j < repN; j++ {
			slow.Append(rep)
		}
		fast.AppendIndexes(&src, idx, from)
		for _, i := range idx {
			slow.Append(src.Value(from + int(i)))
		}

		if fast.Len() != slow.Len() {
			t.Fatalf("trial %d: len %d vs %d", trial, fast.Len(), slow.Len())
		}
		for i := 0; i < fast.Len(); i++ {
			a, b := fast.Value(i), slow.Value(i)
			if a != b && !(a.kind == KindFloat && b.kind == KindFloat && math.IsNaN(a.f) && math.IsNaN(b.f)) {
				t.Fatalf("trial %d row %d: %#v vs %#v", trial, i, a, b)
			}
		}
	}
}

// TestBlockHashMatchesTupleHash pins the load-bearing equivalence of the
// columnar path: HashRow/HashCols fold exactly what Tuple.Hash folds, and
// the key-equality helpers agree with KeyEqual on the materialised rows, so
// block-keyed joins key rows as Tuple.Key strings do. Every other trial
// draws ints only, so typed int columns (hashed from their payload) occur.
func TestBlockHashMatchesTupleHash(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		pool := vals
		if trial%2 == 1 {
			pool = vals[1:6]
		}
		width := 1 + rng.Intn(5)
		rows := make([]Tuple, 1+rng.Intn(60))
		b := NewBlock(width)
		for i := range rows {
			rows[i] = randTuple(rng, pool, width)
			b.AppendTuple(rows[i])
		}
		cols := rng.Perm(width)[:1+rng.Intn(width)]
		for i, row := range rows {
			if got, want := b.HashRow(i), row.Hash(); got != want {
				t.Fatalf("trial %d row %d: HashRow %x want %x", trial, i, got, want)
			}
			proj := row.Project(cols)
			if got, want := b.HashCols(i, cols), proj.Hash(); got != want {
				t.Fatalf("trial %d row %d: HashCols %x want %x", trial, i, got, want)
			}
			if !b.RowKeyEqualTuple(i, row) {
				t.Fatalf("trial %d row %d: RowKeyEqualTuple false for own row", trial, i)
			}
			j := rng.Intn(len(rows))
			if got, want := b.ColsKeyEqual(i, cols, b, j, cols), proj.KeyEqual(rows[j].Project(cols)); got != want {
				t.Fatalf("trial %d rows %d,%d: ColsKeyEqual %v want %v", trial, i, j, got, want)
			}
		}
	}
}

// HashRows folds a range of rows column by column — typed int, float and
// string columns from their payload, others through Value — to exactly the
// HashRow of each row: the pool of each trial is every value, or the ints,
// floats or strings alone, so typed and mixed columns both occur.
func TestHashRowsMatchesHashRow(t *testing.T) {
	vals := testValues()
	pools := [][]Value{vals, vals[1:6], vals[6:15], vals[15:]}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pool, width := pools[trial%len(pools)], 1+rng.Intn(5)
		b := NewBlock(width)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			b.AppendTuple(randTuple(rng, pool, width))
		}
		lo := rng.Intn(n)
		hs := make([]uint64, rng.Intn(n-lo+1))
		b.HashRows(lo, hs)
		for i, h := range hs {
			if want := b.HashRow(lo + i); h != want {
				t.Fatalf("trial %d row %d: HashRows %x want HashRow %x", trial, lo+i, h, want)
			}
		}
	}
}

// rangeBlock is a block holding a copy of rows [lo, hi) of b.
func rangeBlock(b *Block, lo, hi int) *Block {
	v := NewBlock(b.Width())
	v.AppendBlockRange(b, lo, hi)
	return v
}

// TestBlockPrefixAndTuples pins sub-range copies (a row store's compaction
// moves each group's rows as one range) and their materialisation: every
// copy reads exactly its parent's rows, at word-aligned and unaligned
// starts over null bitmaps and mixed columns, and stays unchanged when the
// parent grows.
func TestBlockPrefixAndTuples(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(4))
	nullable := func(v Value) Value {
		if rng.Intn(4) == 0 {
			return Null()
		}
		return v
	}
	const n = 150
	rows := make([]Tuple, n)
	b := NewBlock(4)
	for i := range rows {
		rows[i] = Tuple{
			vals[rng.Intn(len(vals))],           // mixed kinds
			nullable(Int(int64(rng.Intn(9)))),   // ints with nulls
			Float(float64(i) / 3),               // plain floats
			nullable(String(fmt.Sprint(i % 7))), // strings with nulls
		}
		b.AppendTuple(rows[i])
	}
	for _, lo := range []int{0, 1, 63, 64, 65, 100} {
		for _, hi := range []int{lo, lo + 1, 128, n} {
			if hi < lo {
				continue
			}
			v := rangeBlock(b, lo, hi)
			ts := v.Tuples()
			if v.Rows() != hi-lo || len(ts) != hi-lo {
				t.Fatalf("copy [%d,%d): %d rows, %d tuples", lo, hi, v.Rows(), len(ts))
			}
			for i := range ts {
				if !v.RowKeyEqualTuple(i, rows[lo+i]) || !ts[i].KeyEqual(rows[lo+i]) {
					t.Fatalf("copy [%d,%d) row %d diverges", lo, hi, i)
				}
				for j := range ts[i] {
					if ts[i][j].Kind() != rows[lo+i][j].Kind() || v.Col(j).IsNull(i) != rows[lo+i][j].IsNull() {
						t.Fatalf("copy [%d,%d) row %d column %d: kind or nullness diverges", lo, hi, i, j)
					}
				}
			}
		}
	}
	v := rangeBlock(b, 64, 100)
	for i := 0; i < 40; i++ {
		b.AppendTuple(Tuple{Null(), Int(1), Float(0), String("grown")})
	}
	for i := 0; i < v.Rows(); i++ {
		if !v.RowKeyEqualTuple(i, rows[64+i]) {
			t.Fatalf("copied row %d changed when its parent grew", i)
		}
	}
}

// TestColumnMakeSet pins the exact-size fill: Set writes rows of the
// column's kind in any order, refuses nulls and other kinds, and the result
// reads like the same rows appended.
func TestColumnMakeSet(t *testing.T) {
	want := []Value{Float(2.5), Float(-0.0), Float(math.NaN()), Float(math.Inf(-1)), Float(7)}
	c := MakeColumn(KindFloat, len(want))
	for i := len(want) - 1; i >= 0; i-- {
		if !c.Set(i, want[i]) {
			t.Fatalf("Set(%d, %v) refused a value of the column's kind", i, want[i])
		}
	}
	var app Column
	for i, v := range want {
		app.Append(v)
		if got := c.Value(i); got.Kind() != KindFloat || !got.KeyEqual(v) {
			t.Fatalf("row %d reads %v, want %v", i, got, v)
		}
	}
	if c.Len() != app.Len() || c.Kind() != app.Kind() || c.Mixed() {
		t.Fatalf("made column %d rows of %v, appended %d rows of %v", c.Len(), c.Kind(), app.Len(), app.Kind())
	}
	for _, v := range []Value{Null(), Int(2), String("x")} {
		if c.Set(0, v) {
			t.Fatalf("Set accepted %v (%v) into a float column", v, v.Kind())
		}
	}
	if got := c.Value(0); !got.KeyEqual(want[0]) {
		t.Fatalf("a refused Set changed row 0 to %v", got)
	}
	if nulls := MakeColumn(KindNull, 3); nulls.Len() != 3 || !nulls.IsNull(2) || nulls.Set(1, Null()) {
		t.Fatal("MakeColumn(KindNull) must hold only nulls and refuse Set")
	}
}

// TestColumnPayloadAccessors pins Ints, Floats and Strings: each returns
// the rows of a column of its kind without nulls, and refuses every other
// column — another kind, a null, mixed kinds, no rows yet.
func TestColumnPayloadAccessors(t *testing.T) {
	build := func(vs ...Value) *Column {
		var c Column
		for _, v := range vs {
			c.Append(v)
		}
		return &c
	}
	cases := []struct {
		name string
		c    *Column
		want Kind // KindNull: every accessor refuses
	}{
		{"ints", build(Int(3), Int(-1), Int(3)), KindInt},
		{"floats", build(Float(2.5), Float(math.NaN()), Float(math.Copysign(0, -1))), KindFloat},
		{"strings", build(String("hotel"), String(""), String("a")), KindString},
		{"strings with a null", build(String("a"), Null(), String("b")), KindNull},
		{"ints then a float", build(Int(1), Float(1)), KindNull},
		{"a string among ints", build(Int(1), String("1")), KindNull},
		{"empty", build(), KindNull},
		{"all null", build(Null(), Null()), KindNull},
	}
	for _, tc := range cases {
		ints, okI := tc.c.Ints()
		floats, okF := tc.c.Floats()
		strs, okS := tc.c.Strings()
		if okI != (tc.want == KindInt) || okF != (tc.want == KindFloat) || okS != (tc.want == KindString) {
			t.Fatalf("%s: Ints %v, Floats %v, Strings %v; want only the %v payload", tc.name, okI, okF, okS, tc.want)
		}
		var n int
		for i := 0; i < tc.c.Len(); i++ {
			var got Value
			switch tc.want {
			case KindInt:
				got, n = Int(ints[i]), len(ints)
			case KindFloat:
				got, n = Float(floats[i]), len(floats)
			case KindString:
				got, n = String(strs[i]), len(strs)
			default:
				continue
			}
			if !got.KeyEqual(tc.c.Value(i)) {
				t.Fatalf("%s: payload row %d is %v, Value reads %v", tc.name, i, got, tc.c.Value(i))
			}
		}
		if tc.want != KindNull && n != tc.c.Len() {
			t.Fatalf("%s: payload of %d rows, column of %d", tc.name, n, tc.c.Len())
		}
	}
}

// TestDecodeBlockRejectsDamage spot-checks the typed-error contract on a
// few deterministic damage modes (the fuzz target explores the rest).
func TestDecodeBlockRejectsDamage(t *testing.T) {
	b := NewBlock(2)
	b.AppendTuple(Tuple{Int(1), String("x")})
	b.AppendTuple(Tuple{Null(), String("")})
	enc := AppendBlock(nil, b)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBlock(enc[:cut], 0); err != nil {
			var ce *BlockCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("truncation at %d: error %v is not *BlockCorruptError", cut, err)
			}
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := DecodeBlock(huge, 0); err == nil {
		t.Fatal("oversized width decoded")
	}
}

// FuzzBlockRoundTrip pins the block codec's two safety contracts, mirroring
// FuzzSnapshotRoundTrip: (1) identity — any input that decodes re-encodes
// canonically (encode∘decode∘encode is a fixed point); (2) rejection —
// any input that does not decode fails with a typed *BlockCorruptError,
// never a panic, hang, or unbounded allocation. Seeds cover mixed kinds,
// NaN/±Inf floats, empty strings and all-null columns.
func FuzzBlockRoundTrip(f *testing.F) {
	seedBlocks := []*Block{
		NewBlock(0),
		BlockOfTuples(3, []Tuple{
			{Int(1), Float(2.5), String("hotel")},
			{Int(2), Float(math.NaN()), String("")},
			{Int(3), Float(math.Inf(1)), String("hotel")},
			{Null(), Float(math.Inf(-1)), Null()},
		}),
		BlockOfTuples(2, []Tuple{
			{Null(), String("a")},
			{Null(), Int(7)},
			{Null(), Float(7)},
		}),
		BlockOfTuples(1, nil),
	}
	for _, b := range seedBlocks {
		f.Add(AppendBlock(nil, b))
	}
	enc := AppendBlock(nil, seedBlocks[1])
	f.Add(enc[:len(enc)/2])
	mut := append([]byte(nil), enc...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, err := DecodeBlock(data, 0)
		if err != nil {
			var ce *BlockCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error %v is not a *BlockCorruptError", err)
			}
			return
		}
		re := AppendBlock(nil, b)
		b2, n, err := DecodeBlock(re, 0)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if n != len(re) {
			t.Fatalf("re-encoded block decode consumed %d of %d bytes", n, len(re))
		}
		re2 := AppendBlock(nil, b2)
		if !bytes.Equal(re, re2) {
			t.Fatal("decode∘encode is not the identity")
		}
		if b2.Rows() != b.Rows() || b2.Width() != b.Width() {
			t.Fatalf("shape changed: %dx%d vs %dx%d", b2.Rows(), b2.Width(), b.Rows(), b.Width())
		}
		for i := 0; i < b.Rows(); i++ {
			if !b.RowKeyEqualTuple(i, b2.Tuple(i)) {
				t.Fatalf("row %d changed across round-trip", i)
			}
		}
	})
}

// FillBlock holds what appending its rows one by one holds — the same
// values and the same representation (encoded bytes) — for typed columns,
// columns with nulls and mixed columns, on one goroutine and on several.
func TestFillBlockMatchesAppend(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{0, 1, 7, 3*minFillChunk + 5} {
		// Column 0 is homogeneous, 1 takes a null late, 2 mixes kinds.
		tuples := make([]Tuple, rows)
		for i := range tuples {
			tuples[i] = Tuple{Int(int64(i)), Float(float64(i) / 2), vals[rng.Intn(len(vals))]}
		}
		if rows > 1 {
			tuples[rows-1][1] = Null()
		}
		want := AppendBlock(nil, BlockOfTuples(3, tuples))
		for _, workers := range []int{1, 4} {
			got := AppendBlock(nil, FillBlock(3, rows, func(r, c int) Value { return tuples[r][c] }, workers))
			if !bytes.Equal(got, want) {
				t.Fatalf("rows=%d workers=%d: FillBlock differs from appending the rows", rows, workers)
			}
		}
	}
}

// A block may append a range of its own rows, as a row store placing a
// group's surviving rows after the others does.
func TestAppendBlockRangeFromItself(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(150)
		homog := vals[rng.Intn(len(vals))]
		b, ref := NewBlock(2), NewBlock(2)
		for i := 0; i < n; i++ {
			tp := Tuple{homog, vals[rng.Intn(len(vals))]}
			b.AppendTuple(tp)
			ref.AppendTuple(tp)
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		b.AppendBlockRange(b, lo, hi)
		for i := lo; i < hi; i++ {
			ref.AppendTuple(ref.Tuple(i))
		}
		if !bytes.Equal(AppendBlock(nil, b), AppendBlock(nil, ref)) {
			t.Fatalf("trial %d: appending rows [%d, %d) of itself differs from appending copies", trial, lo, hi)
		}
	}
}

// TestBlockResetFillsAsNew pins that a reset block fills exactly as a new
// one: after rows of any shape — typed, with nulls, mixed — and a Reset to
// any width, the same reservations and appends give the same columns as
// on NewBlock: kind, mixed fallback, validity bitmap (nil while no row is
// null), payload accessors and every value.
func TestBlockResetFillsAsNew(t *testing.T) {
	vals := testValues()
	rng := rand.New(rand.NewSource(9))
	fill := func(b *Block, rows [][]Value, reserve Kind) {
		for j := 0; j < b.Width(); j++ {
			b.Col(j).Reserve(reserve, len(rows))
		}
		for _, r := range rows {
			b.AppendTuple(r)
		}
	}
	shape := func(width int) [][]Value {
		n := rng.Intn(80)
		mode := rng.Intn(3) // 0 typed, 1 typed with nulls, 2 mixed
		base := make([]Value, width)
		for j := range base {
			base[j] = vals[1+rng.Intn(len(vals)-1)]
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = make([]Value, width)
			for j := range rows[i] {
				switch {
				case mode == 1 && rng.Intn(4) == 0:
					rows[i][j] = Null()
				case mode < 2:
					rows[i][j] = base[j]
				default:
					rows[i][j] = vals[rng.Intn(len(vals))]
				}
			}
		}
		return rows
	}
	kinds := []Kind{KindNull, KindInt, KindFloat, KindString}
	for trial := 0; trial < 300; trial++ {
		b := NewBlock(1 + rng.Intn(4))
		fill(b, shape(b.Width()), kinds[rng.Intn(len(kinds))])
		width := 1 + rng.Intn(4)
		rows, reserve := shape(width), kinds[rng.Intn(len(kinds))]
		b.Reset(width)
		fill(b, rows, reserve)
		want := NewBlock(width)
		fill(want, rows, reserve)
		if b.Width() != want.Width() || b.Rows() != want.Rows() {
			t.Fatalf("trial %d: %d×%d after reset, want %d×%d", trial, b.Rows(), b.Width(), want.Rows(), want.Width())
		}
		for j := 0; j < width; j++ {
			got, exp := b.Col(j), want.Col(j)
			_, gi := got.Ints()
			_, ei := exp.Ints()
			_, gf := got.Floats()
			_, ef := exp.Floats()
			_, gs := got.Strings()
			_, es := exp.Strings()
			if got.Kind() != exp.Kind() || got.Mixed() != exp.Mixed() || (got.valid == nil) != (exp.valid == nil) ||
				gi != ei || gf != ef || gs != es || got.Len() != exp.Len() {
				t.Fatalf("trial %d column %d: kind %v mixed %v nulls %v after reset, want kind %v mixed %v nulls %v",
					trial, j, got.Kind(), got.Mixed(), got.valid != nil, exp.Kind(), exp.Mixed(), exp.valid != nil)
			}
			for i := 0; i < exp.Len(); i++ {
				a, e := got.Value(i), exp.Value(i)
				if a != e && !(a.kind == KindFloat && e.kind == KindFloat && math.IsNaN(a.f) && math.IsNaN(e.f)) {
					t.Fatalf("trial %d column %d row %d: %#v after reset, want %#v", trial, j, i, a, e)
				}
			}
		}
	}
}
