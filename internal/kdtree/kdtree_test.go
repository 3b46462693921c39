package kdtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
)

func testAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("price", relation.KindFloat, relation.Numeric(100)),
		relation.Attr("stars", relation.KindInt, relation.Numeric(5)),
		relation.Attr("type", relation.KindString, relation.Discrete()),
	}
}

func randomRows(rng *rand.Rand, n int) *relation.Block {
	types := []string{"hotel", "bar", "cafe"}
	b := relation.NewBlock(3)
	for b.Rows() < n {
		t := relation.Tuple{
			relation.Float(rng.Float64() * 500),
			relation.Int(int64(rng.Intn(6))),
			relation.String(types[rng.Intn(len(types))]),
		}
		for c := 1 + rng.Intn(3); c > 0 && b.Rows() < n; c-- {
			b.AppendTuple(t)
		}
	}
	return b
}

// buildAll builds the tree over every row of b.
func buildAll(attrs []relation.Attribute, b *relation.Block) *Tree {
	return Build(attrs, b, 0, b.Rows())
}

func TestEmptyTree(t *testing.T) {
	tr := buildAll(testAttrs(), relation.NewBlock(3))
	if tr.Count() != 0 || tr.Items() != 0 || tr.ExactLevel() != 0 {
		t.Error("empty tree counters")
	}
	if reps := tr.Level(3); reps != nil {
		t.Errorf("empty Level = %v", reps)
	}
	res := tr.Resolution(0)
	if len(res) != 3 || !allZero(res) {
		t.Errorf("empty Resolution = %v", res)
	}
}

func TestSingleItem(t *testing.T) {
	it := relation.Tuple{relation.Float(10), relation.Int(3), relation.String("bar")}
	b := relation.BlockOfTuples(3, []relation.Tuple{it, it, it, it, it})
	tr := buildAll(testAttrs(), b)
	if tr.Count() != 5 || tr.Items() != 1 || tr.ExactLevel() != 0 {
		t.Errorf("counters: count=%d items=%d exact=%d", tr.Count(), tr.Items(), tr.ExactLevel())
	}
	reps := tr.Level(0)
	if len(reps) != 1 || reps[0].Count != 5 || reps[0].Row != 0 {
		t.Errorf("Level(0) = %+v", reps)
	}
	if !allZero(tr.MaxDist(reps[0])) {
		t.Errorf("single-item MaxDist = %v", tr.MaxDist(reps[0]))
	}
}

// A leading NaN must not hide the spread of the numbers after it: NaN is
// at distance NaN from every number, which exceeds no resolution, so the
// level-0 resolution is the spread of the numbers alone — +inf here for the
// numeric attribute, and +inf for the trivial one whose numbers differ. Both
// a typed float column and a mixed one (the Value path) are checked.
func TestLeadingNaNKeepsSpread(t *testing.T) {
	attrs := []relation.Attribute{
		relation.Attr("n", relation.KindFloat, relation.Numeric(10)),
		relation.Attr("t", relation.KindFloat, relation.Trivial()),
	}
	nan := relation.Float(math.NaN())
	for _, tail := range [][]relation.Value{
		{relation.Float(math.Inf(1)), relation.Float(3)},
		{relation.Float(math.Inf(1)), relation.Int(3)},
	} {
		var rows []relation.Tuple
		for _, v := range append([]relation.Value{nan}, tail...) {
			rows = append(rows, relation.Tuple{v, v})
		}
		res := buildAll(attrs, relation.BlockOfTuples(2, rows)).Resolution(0)
		if !math.IsInf(res[0], 1) || !math.IsInf(res[1], 1) {
			t.Errorf("NaN then %v: level-0 resolution %v, want +inf on both attributes", tail, res)
		}
	}
}

func TestLevelCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := buildAll(testAttrs(), randomRows(rng, 200))
	for k := 0; k <= tr.ExactLevel()+1; k++ {
		reps := tr.Level(k)
		if len(reps) > 1<<uint(k) {
			t.Errorf("Level(%d) has %d reps > 2^%d", k, len(reps), k)
		}
	}
}

func TestCountsPreservedAcrossLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := randomRows(rng, 157)
	total := b.Rows()
	tr := buildAll(testAttrs(), b)
	for k := 0; k <= tr.ExactLevel(); k++ {
		sum := 0
		for _, r := range tr.Level(k) {
			sum += int(r.Count)
		}
		if sum != total {
			t.Errorf("Level(%d) count sum = %d, want %d", k, sum, total)
		}
	}
}

// The central invariant: at every level, every indexed tuple has a
// representative within the level's resolution on every attribute.
func TestRepresentationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	attrs := testAttrs()
	b := randomRows(rng, 300)
	tr := buildAll(attrs, b)
	const eps = 1e-9
	for k := 0; k <= tr.ExactLevel(); k++ {
		reps := tr.Level(k)
		res := tr.Resolution(k)
		for i := 0; i < b.Rows(); i++ {
			covered := false
			for _, r := range reps {
				ok := true
				for a := range attrs {
					d := attrs[a].Dist.Between(b.Value(i, a), b.Value(int(r.Row), a))
					if d > res[a]+eps && !(math.IsInf(d, 1) && math.IsInf(res[a], 1)) {
						ok = false
						break
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("level %d: row %v not covered within resolution %v", k, b.Tuple(i), res)
			}
		}
	}
}

func TestResolutionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := buildAll(testAttrs(), randomRows(rng, 250))
	prev := tr.Resolution(0)
	for k := 1; k <= tr.ExactLevel(); k++ {
		cur := tr.Resolution(k)
		for a := range cur {
			if cur[a] > prev[a]+1e-9 {
				t.Fatalf("Resolution not monotone at level %d attr %d: %g > %g", k, a, cur[a], prev[a])
			}
		}
		prev = cur
	}
	// Exact at the top.
	if !allZero(tr.Resolution(tr.ExactLevel())) {
		t.Errorf("Resolution(ExactLevel) = %v, want all zero", tr.Resolution(tr.ExactLevel()))
	}
}

func TestRepsAreActualTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomRows(rng, 140)
	lo, hi := 10, 130
	first := make(map[string]int, hi-lo)
	for r := hi - 1; r >= lo; r-- {
		first[b.Tuple(r).Key()] = r
	}
	tr := Build(testAttrs(), b, lo, hi)
	for k := 0; k <= tr.ExactLevel(); k++ {
		for _, r := range tr.Level(k) {
			if row := int(r.Row); row < lo || row >= hi || first[b.Tuple(row).Key()] != row {
				t.Fatalf("level %d representative row %d is not the first indexed row of its point", k, r.Row)
			}
		}
	}
}

func TestTrivialAttributeSpread(t *testing.T) {
	attrs := []relation.Attribute{
		relation.Attr("id", relation.KindInt, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(1)),
	}
	b := relation.BlockOfTuples(2, []relation.Tuple{
		{relation.Int(1), relation.Float(0)},
		{relation.Int(2), relation.Float(1)},
		{relation.Int(3), relation.Float(2)},
		{relation.Int(4), relation.Float(3)},
	})
	tr := buildAll(attrs, b)
	res0 := tr.Resolution(0)
	if !math.IsInf(res0[0], 1) {
		t.Errorf("trivial attr resolution at root = %g, want +inf", res0[0])
	}
	// At the exact level everything is a singleton.
	if !allZero(tr.Resolution(tr.ExactLevel())) {
		t.Error("exact level must have zero resolution")
	}
}

func TestDuplicatePointsCollapseToLeaf(t *testing.T) {
	attrs := []relation.Attribute{
		relation.Attr("v", relation.KindInt, relation.Numeric(1)),
	}
	seven, nine := relation.Tuple{relation.Int(7)}, relation.Tuple{relation.Int(9)}
	b := relation.BlockOfTuples(1, []relation.Tuple{seven, seven, nine, seven, seven, seven})
	tr := buildAll(attrs, b)
	// Level 1 should split {7,7} from {9}; the 7-leaf must not split further.
	if tr.ExactLevel() != 1 {
		t.Errorf("ExactLevel = %d, want 1 (identical points form one leaf)", tr.ExactLevel())
	}
	reps := tr.Level(1)
	if len(reps) != 2 {
		t.Fatalf("Level(1) = %d reps, want 2", len(reps))
	}
	for _, r := range reps {
		if v, _ := b.Value(int(r.Row), 0).AsInt(); v == 7 && (r.Count != 5 || r.Row != 0) {
			t.Errorf("collapsed leaf = row %d count %d, want row 0 count 5", r.Row, r.Count)
		}
	}
}

func TestLevelClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := buildAll(testAttrs(), randomRows(rng, 50))
	if got, want := len(tr.Level(-3)), len(tr.Level(0)); got != want {
		t.Errorf("Level(-3) = %d reps, want %d", got, want)
	}
	deep := tr.Level(tr.ExactLevel() + 10)
	exact := tr.Level(tr.ExactLevel())
	if len(deep) != len(exact) {
		t.Errorf("Level beyond exact = %d reps, want %d", len(deep), len(exact))
	}
}

// lineitemAttrs is the 7-D shape of the TPCH lineitem relation — the
// generic ladder At over it is the largest tree the system builds, and every
// lineitem write rebuilds it.
func lineitemAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("ok", relation.KindInt, relation.Trivial()),
		relation.Attr("pk", relation.KindInt, relation.Trivial()),
		relation.Attr("sk", relation.KindInt, relation.Trivial()),
		relation.Attr("qty", relation.KindInt, relation.Numeric(49)),
		relation.Attr("extprice", relation.KindFloat, relation.Numeric(100000)),
		relation.Attr("discount", relation.KindFloat, relation.Numeric(0.1)),
		relation.Attr("ship", relation.KindInt, relation.Numeric(2555)),
	}
}

func lineitemRows(rng *rand.Rand, n int) *relation.Block {
	b := relation.NewBlock(7)
	for i := 0; i < n; i++ {
		b.AppendTuple(relation.Tuple{
			relation.Int(int64(rng.Intn(n/4 + 1))),
			relation.Int(int64(rng.Intn(n/8 + 1))),
			relation.Int(int64(rng.Intn(n/64 + 1))),
			relation.Int(int64(1 + rng.Intn(50))),
			relation.Float(100 + rng.Float64()*100000),
			relation.Float(rng.Float64() * 0.1),
			relation.Int(int64(rng.Intn(2556))),
		})
	}
	return b
}

var benchTree *Tree

// BenchmarkBuild builds lineitem-shaped trees in fresh memory (n=) and,
// as maintenance does, through one reused Scratch with the levels listed
// after each build (scratch_n=).
func BenchmarkBuild(b *testing.B) {
	attrs := lineitemAttrs()
	for _, n := range []int{64, 4096, 65536} {
		rows := lineitemRows(rand.New(rand.NewSource(7)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree = buildAll(attrs, rows)
			}
		})
	}
	for _, n := range []int{64, 4096, 16384, 65536} {
		rows := lineitemRows(rand.New(rand.NewSource(7)), n)
		b.Run(fmt.Sprintf("scratch_n=%d", n), func(b *testing.B) {
			var s Scratch
			var reps []Rep
			var sizes []int32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree = s.Build(attrs, rows, 0, n)
				reps, sizes = s.AppendLevels(reps[:0], sizes[:0])
			}
		})
	}
}

// sortKeys must give the (key, position) order at every length — below,
// at and across insertionRun and the merge widths — with the few distinct
// keys that make ties common and keys spread over all eight bytes.
func TestSortKeysIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 8*insertionRun+3; n++ {
		for _, distinct := range []int{1, 3, n + 1} {
			keys := make([]sortKey, n)
			for i := range keys {
				keys[i] = sortKey{key: uint64(rng.Intn(distinct)) * 0x0101010101010101, pos: uint32(i)}
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b sortKey) int { return cmp.Compare(a.key, b.key) })
			if got := sortKeys(keys, make([]sortKey, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d, %d distinct keys: %v, want %v", n, distinct, got, want)
			}
		}
	}
}

// pointerFree reports whether values of type t hold no pointer: the
// garbage collector never scans a slice of them.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return false
	}
	return true
}

// The buffers a kept Scratch grows with its points — the nodes, the
// maxDist rows, the sort records, the row slab, the row hashes — and the
// level listing AppendLevels fills hold no pointers.
func TestKeptBuildMemoryHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(node{}), reflect.TypeOf(float64(0)), reflect.TypeOf(sortKey{}),
		reflect.TypeOf(int32(0)), reflect.TypeOf(uint64(0)), reflect.TypeOf(Rep{}),
	} {
		if !pointerFree(typ) {
			t.Errorf("%v has pointers", typ)
		}
	}
	for _, f := range []struct {
		owner reflect.Type
		name  string
		elem  reflect.Type
	}{
		{reflect.TypeOf(builder{}), "nodes", reflect.TypeOf(node{})},
		{reflect.TypeOf(builder{}), "dists", reflect.TypeOf(float64(0))},
		{reflect.TypeOf(builder{}), "keys", reflect.TypeOf(sortKey{})},
		{reflect.TypeOf(builder{}), "keys2", reflect.TypeOf(sortKey{})},
		{reflect.TypeOf(Scratch{}), "slab", reflect.TypeOf(int32(0))},
		{reflect.TypeOf(Scratch{}), "hashes", reflect.TypeOf(uint64(0))},
	} {
		got, ok := f.owner.FieldByName(f.name)
		if !ok || got.Type != reflect.SliceOf(f.elem) {
			t.Errorf("%v.%s is not a []%v", f.owner, f.name, f.elem)
		}
	}
}

// mixedAttrs includes a trivial (0/+inf) distance so the query tests cover
// unbounded attributes too.
func mixedAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("price", relation.KindFloat, relation.Numeric(100)),
		relation.Attr("type", relation.KindString, relation.Discrete()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
	}
}

func randomMixedRows(rng *rand.Rand, n int) *relation.Block {
	types := []string{"hotel", "bar", "cafe"}
	cities := []string{"NYC", "Boston"}
	b := relation.NewBlock(3)
	for i := 0; i < n; i++ {
		b.AppendTuple(relation.Tuple{
			relation.Float(float64(rng.Intn(50)) * 10),
			relation.String(types[rng.Intn(len(types))]),
			relation.String(cities[rng.Intn(len(cities))]),
		})
	}
	return b
}

// withinScan is the naive reference for AnyWithin: some point is within
// delta of point on every attribute, two +inf distances counting as
// within, as §6's dangerous-distance exclusion requires.
func withinScan(attrs []relation.Attribute, b *relation.Block, point relation.Tuple, delta []float64) bool {
	for i := 0; i < b.Rows(); i++ {
		ok := true
		for a := range attrs {
			d := attrs[a].Dist.Between(point[a], b.Value(i, a))
			if d > delta[a] && !(math.IsInf(d, 1) && math.IsInf(delta[a], 1)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestAnyWithinMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	attrs := mixedAttrs()
	for trial := 0; trial < 40; trial++ {
		b := randomMixedRows(rng, 1+rng.Intn(120))
		tr := buildAll(attrs, b)
		deltas := [][]float64{
			{0, 0, 0},
			{0.2, 0, 0},
			{0.5, 1, 0},
			{math.Inf(1), 1, math.Inf(1)},
			{0.05, 0, math.Inf(1)},
		}
		for probe := 0; probe < 25; probe++ {
			pt := randomMixedRows(rng, 1).Tuple(0)
			for di, delta := range deltas {
				got := tr.AnyWithin(pt, delta)
				want := withinScan(attrs, b, pt, delta)
				if got != want {
					t.Fatalf("trial %d probe %v delta %d (%v): AnyWithin = %v, scan = %v",
						trial, pt, di, delta, got, want)
				}
			}
		}
	}
	// Every distance kind over typed int, float and string columns, where
	// the searches read the payloads directly.
	attrs = stressAttrs()
	for trial := 0; trial < 40; trial++ {
		b := stressRows(rng, 1+rng.Intn(120), 0)
		tr := buildAll(attrs, b)
		for probe := 0; probe < 25; probe++ {
			pt := stressRows(rng, 1, 0).Tuple(0)
			delta := make([]float64, len(attrs))
			for a := range delta {
				delta[a] = []float64{0, 0.2, 1, math.Inf(1)}[rng.Intn(4)]
			}
			if got, want := tr.AnyWithin(pt, delta), withinScan(attrs, b, pt, delta); got != want {
				t.Fatalf("typed trial %d probe %v delta %v: AnyWithin = %v, scan = %v", trial, pt, delta, got, want)
			}
		}
	}
}

func TestMinMaxDistanceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	attrs := mixedAttrs()
	for trial := 0; trial < 40; trial++ {
		b := randomMixedRows(rng, 1+rng.Intn(120))
		tr := buildAll(attrs, b)
		for probe := 0; probe < 25; probe++ {
			pt := randomMixedRows(rng, 1).Tuple(0)
			want := math.Inf(1)
			for i := 0; i < b.Rows(); i++ {
				if d := relation.TupleDistance(attrs, b.Tuple(i), pt); d < want {
					want = d
				}
			}
			got := tr.MinMaxDistance(pt)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d probe %v: MinMaxDistance = %g, scan = %g", trial, pt, got, want)
			}
		}
	}
	// Every distance kind over typed int, float and string columns, where
	// the searches read the payloads directly.
	attrs = stressAttrs()
	for trial := 0; trial < 40; trial++ {
		b := stressRows(rng, 1+rng.Intn(120), 0)
		tr := buildAll(attrs, b)
		for probe := 0; probe < 25; probe++ {
			pt := stressRows(rng, 1, 0).Tuple(0)
			want := math.Inf(1)
			for i := 0; i < b.Rows(); i++ {
				if d := relation.TupleDistance(attrs, b.Tuple(i), pt); d < want {
					want = d
				}
			}
			if got := tr.MinMaxDistance(pt); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("typed trial %d probe %v: MinMaxDistance = %g, scan = %g", trial, pt, got, want)
			}
		}
	}
}

// AnyWithin with one finite d on every attribute must be MinMaxDistance ≤ d
// exactly — some point at TupleDistance ≤ d, the test η′'s early break
// makes — at d = 0 and at each exact distance from the probe to a point and
// the float just below it, over every distance kind and over nulls, mixed
// kinds, NaN and ±Inf; at d = +inf it holds for every non-empty tree.
func TestWithinDistanceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(label string, attrs []relation.Attribute, b *relation.Block, pt relation.Tuple) {
		t.Helper()
		tr := buildAll(attrs, b)
		ds := []float64{0, math.Inf(1)}
		for i := 0; i < b.Rows(); i++ {
			d := relation.TupleDistance(attrs, b.Tuple(i), pt)
			ds = append(ds, d, math.Nextafter(d, 0))
		}
		for _, d := range ds {
			want := false
			for i := 0; i < b.Rows() && !want; i++ {
				want = relation.TupleDistance(attrs, b.Tuple(i), pt) <= d
			}
			delta := make([]float64, len(attrs))
			for a := range delta {
				delta[a] = d
			}
			if got := tr.AnyWithin(pt, delta); got != want {
				t.Fatalf("%s probe %v d=%g: AnyWithin = %v, scan = %v", label, pt, d, got, want)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		b := randomMixedRows(rng, rng.Intn(120))
		for probe := 0; probe < 10; probe++ {
			check(fmt.Sprintf("mixed trial %d", trial), mixedAttrs(), b, randomMixedRows(rng, 1).Tuple(0))
		}
	}
	for mode := 0; mode < stressModes; mode++ {
		for trial := 0; trial < 20; trial++ {
			b := stressRows(rng, rng.Intn(120), mode)
			for probe := 0; probe < 10; probe++ {
				check(fmt.Sprintf("stress mode %d trial %d", mode, trial), stressAttrs(), b, stressRows(rng, 1, mode).Tuple(0))
			}
		}
	}
}

func TestQueriesOnEmptyTree(t *testing.T) {
	tr := buildAll(mixedAttrs(), relation.NewBlock(3))
	pt := relation.Tuple{relation.Float(1), relation.String("bar"), relation.String("NYC")}
	if tr.AnyWithin(pt, []float64{1, 1, 1}) {
		t.Error("AnyWithin on empty tree")
	}
	if !math.IsInf(tr.MinMaxDistance(pt), 1) {
		t.Error("MinMaxDistance on empty tree must be +inf")
	}
}

// AllLevels must agree with per-level Level calls — same representatives,
// same order, at every level.
func TestAllLevelsMatchesLevel(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 200} {
		tree := buildAll(testAttrs(), randomRows(rand.New(rand.NewSource(int64(n))), n))
		all := tree.AllLevels()
		if n == 0 {
			if all != nil {
				t.Fatalf("empty tree AllLevels = %v", all)
			}
			continue
		}
		if len(all) != tree.ExactLevel()+1 {
			t.Fatalf("n=%d: %d levels, want %d", n, len(all), tree.ExactLevel()+1)
		}
		for k := 0; k <= tree.ExactLevel(); k++ {
			want := tree.Level(k)
			got := all[k]
			if len(got) != len(want) {
				t.Fatalf("n=%d level %d: %d reps, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Count != want[i].Count || got[i].Row != want[i].Row {
					t.Fatalf("n=%d level %d rep %d differs", n, k, i)
				}
				for a, d := range tree.MaxDist(want[i]) {
					if tree.MaxDist(got[i])[a] != d {
						t.Fatalf("n=%d level %d rep %d maxdist differs", n, k, i)
					}
				}
			}
		}
	}
}

// referenceBuild is the construction Build replaced, kept as the one
// oracle: a per-level sort.SliceStable on Value.Less over materialised
// rows, a fresh maxDist per node computed from the Values, nodes appended
// in preorder, single goroutine. Build must produce the same tree over rows
// [lo, hi) of b.
func referenceBuild(attrs []relation.Attribute, b *relation.Block, lo, hi int) *Tree {
	t := &Tree{attrs: attrs}
	if hi <= lo {
		return t
	}
	byKey := make(map[string]int, hi-lo)
	own := make([]refItem, 0, hi-lo)
	for r := lo; r < hi; r++ {
		tup := b.Tuple(r)
		if i, dup := byKey[tup.Key()]; dup {
			own[i].count++
			continue
		}
		byKey[tup.Key()] = len(own)
		own = append(own, refItem{row: r, tuple: tup, count: 1})
	}
	t.items = len(own)
	t.count = hi - lo
	t.referenceBuildNode(own, 0)
	return t
}

// refItem is one distinct row as referenceBuild sorts it: its first row,
// its values and the number of rows merged into it.
type refItem struct {
	row   int
	tuple relation.Tuple
	count int
}

// referenceBuildNode appends the subtree over items to t's nodes and
// returns the slot of its root.
func (t *Tree) referenceBuildNode(items []refItem, depth int) int32 {
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	slot := int32(len(t.nodes))
	maxDist := t.referenceSpread(items)
	n := node{rep: int32(items[len(items)/2].row), dist: int32(len(t.dists) / len(t.attrs))}
	for _, it := range items {
		n.count += int32(it.count)
	}
	t.nodes, t.dists = append(t.nodes, n), append(t.dists, maxDist...)
	if len(items) == 1 || allZero(maxDist) {
		return slot
	}
	dim := splitDim(maxDist)
	sort.SliceStable(items, func(i, j int) bool {
		return items[i].tuple[dim].Less(items[j].tuple[dim])
	})
	mid := len(items) / 2
	t.nodes[slot].rep = int32(items[mid].row)
	t.referenceBuildNode(items[:mid], depth+1) // at slot+1
	t.nodes[slot].right = t.referenceBuildNode(items[mid:], depth+1)
	return slot
}

func (t *Tree) referenceSpread(items []refItem) []float64 {
	out := make([]float64, len(t.attrs))
	for a, attr := range t.attrs {
		at := func(i int) relation.Value { return items[i].tuple[a] }
		switch attr.Dist.Kind {
		case relation.DistNumeric:
			out[a] = valuesSpread(len(items), at, attr.Dist)
		default:
			if !valuesEqual(len(items), at) {
				out[a] = unequalSpread(attr.Dist)
			}
		}
	}
	return out
}

// assertSameTree compares everything a caller can observe of two trees
// over the same rows. A NaN resolution (possible only when the data holds
// NaN) is compared by bit pattern.
func assertSameTree(t testing.TB, label string, got, want *Tree) {
	t.Helper()
	if got.Items() != want.Items() || got.Count() != want.Count() || got.ExactLevel() != want.ExactLevel() {
		t.Fatalf("%s: items/count/exact = %d/%d/%d, reference %d/%d/%d", label,
			got.Items(), got.Count(), got.ExactLevel(), want.Items(), want.Count(), want.ExactLevel())
	}
	ga, wa := got.AllLevels(), want.AllLevels()
	if len(ga) != len(wa) {
		t.Fatalf("%s: %d levels, reference %d", label, len(ga), len(wa))
	}
	for k := range wa {
		if len(ga[k]) != len(wa[k]) {
			t.Fatalf("%s: level %d has %d reps, reference %d", label, k, len(ga[k]), len(wa[k]))
		}
		for i := range wa[k] {
			g, w := ga[k][i], wa[k][i]
			if g.Count != w.Count || g.Row != w.Row {
				t.Fatalf("%s: level %d rep %d = (row %d, %d), reference (row %d, %d)", label, k, i, g.Row, g.Count, w.Row, w.Count)
			}
			gd, wd := got.MaxDist(g), want.MaxDist(w)
			for a := range wd {
				if math.Float64bits(gd[a]) != math.Float64bits(wd[a]) {
					t.Fatalf("%s: level %d rep %d maxDist[%d] = %g, reference %g", label, k, i, a, gd[a], wd[a])
				}
			}
		}
	}
}

// stressAttrs covers every distance kind over columns the generators below
// fill with whatever the fast path must not get wrong.
func stressAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("a", relation.KindInt, relation.Numeric(10)),
		relation.Attr("b", relation.KindFloat, relation.Numeric(1)),
		relation.Attr("c", relation.KindInt, relation.Trivial()),
		relation.Attr("d", relation.KindString, relation.Discrete()),
		relation.Attr("e", relation.KindFloat, relation.Trivial()),
	}
}

// stressValue draws one value for a column under a mode:
// 0 clean typed data with heavy ties; 1 adds nulls and strings; 2 mixes Int
// and Float in one column, including ints beyond 2^53 whose float images
// collide; 3 adds ±Inf, −0 and NaN. Mode 4 keeps every column typed (no
// nulls, no mixing) but draws extreme ints and ±Inf, −0 and NaN floats, so
// the kernel's typed-payload paths meet the values that must leave them.
func stressValue(rng *rand.Rand, col, mode int) relation.Value {
	const big = int64(1) << 53
	if col == 4 {
		col = 1 // e draws what b draws, under a trivial distance
	}
	if mode == 4 {
		switch col {
		case 3:
			return relation.String([]string{"x", "y", ""}[rng.Intn(3)])
		case 1:
			if rng.Intn(4) == 0 {
				return relation.Float([]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}[rng.Intn(5)])
			}
			return relation.Float(float64(rng.Intn(8)) / 4)
		default:
			if rng.Intn(4) == 0 {
				return relation.Int([]int64{math.MinInt64, math.MaxInt64, big, big + 1, -big - 1}[rng.Intn(5)])
			}
			return relation.Int(int64(rng.Intn(5)))
		}
	}
	switch col {
	case 3:
		if mode >= 1 && rng.Intn(9) == 0 {
			return relation.Null()
		}
		return relation.String([]string{"x", "y", "z", ""}[rng.Intn(4)])
	case 1:
		switch {
		case mode >= 3 && rng.Intn(6) == 0:
			return relation.Float([]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}[rng.Intn(5)])
		case mode >= 2 && rng.Intn(4) == 0:
			return relation.Int(int64(rng.Intn(4)))
		case mode >= 1 && rng.Intn(11) == 0:
			return relation.Null()
		}
		return relation.Float(float64(rng.Intn(8)) / 4)
	default:
		switch {
		case mode >= 2 && rng.Intn(4) == 0:
			return relation.Int(big + int64(rng.Intn(4)))
		case mode >= 2 && rng.Intn(4) == 0:
			return relation.Float(float64(big) + float64(2*rng.Intn(2)))
		case mode >= 1 && rng.Intn(13) == 0:
			return relation.String("s")
		}
		return relation.Int(int64(rng.Intn(5)))
	}
}

// stressModes is the number of stressValue modes.
const stressModes = 5

// stressRows draws n rows under a mode; a third of them repeat an earlier
// row, so merged duplicates are everywhere.
func stressRows(rng *rand.Rand, n, mode int) *relation.Block {
	b := relation.NewBlock(len(stressAttrs()))
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			b.AppendRow(b, rng.Intn(i))
			continue
		}
		tup := make(relation.Tuple, b.Width())
		for c := range tup {
			tup[c] = stressValue(rng, c, mode)
		}
		b.AppendTuple(tup)
	}
	return b
}

// keyShapeAttrs are the columns keyShapeRows fills: a typed int and a
// typed float column under numeric distances, whose keys the build sorts,
// and a typed string column without nulls under the discrete distance.
func keyShapeAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("i", relation.KindInt, relation.Numeric(1)),
		relation.Attr("f", relation.KindFloat, relation.Numeric(1)),
		relation.Attr("s", relation.KindString, relation.Discrete()),
	}
}

// keyShapes is the number of keyShapeRows shapes.
const keyShapes = 6

// keyShapeRows draws n rows whose int and float sort keys take one shape:
// 0 distinct keys that differ in their lowest byte only; 1 in their two
// lowest; 2 in every byte (random bits, with ±(2^63−1), MinInt64, ±Inf,
// ±MaxFloat64 and −0/+0 among them); 3 not at all (one int, and −0 and +0
// floats, which key alike); 4 ascending and 5 descending with the row, the
// strings too.
func keyShapeRows(rng *rand.Rand, n, shape int) *relation.Block {
	strs := []string{"", "a", "ab", "b"}
	perm := rng.Perm(1 << (8 * min(shape+1, 2))) // distinct keys of one or two bytes
	b := relation.NewBlock(3)
	for r := 0; r < n; r++ {
		var i int64
		var f float64
		str := strs[rng.Intn(len(strs))]
		switch shape {
		case 0, 1:
			k := perm[r%len(perm)]
			i, f = int64(k), 1+float64(k)*0x1p-52
		case 2:
			i = int64(rng.Uint64())
			if rng.Intn(8) == 0 {
				i = []int64{math.MaxInt64, -math.MaxInt64, math.MinInt64}[rng.Intn(3)]
			}
			for f = math.NaN(); f != f; {
				f = math.Float64frombits(rng.Uint64())
			}
			if rng.Intn(8) == 0 {
				f = []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), 0}[rng.Intn(6)]
			}
		case 3:
			i, f = 7, math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 4, 5:
			k := r
			if shape == 5 {
				k = n - r
			}
			i, f, str = int64(3*k-n), float64(k)/8, fmt.Sprintf("%06d", k)
		}
		b.AppendTuple(relation.Tuple{relation.Int(i), relation.Float(f), relation.String(str)})
	}
	return b
}

// Build must produce the tree referenceBuild produces — same reps, counts,
// per-node maxDist and level order — on clean and on hostile inputs, at the
// sizes around every threshold in the kernel, over a whole block and over
// a range inside one.
func TestBuildMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // fork even on a one-core host
	defer runtime.GOMAXPROCS(prev)
	sizes := []int{0, 1, 2, 3, 12, 13, 100, 1000}
	if !testing.Short() {
		sizes = append(sizes, 50000)
	}
	for mode := 0; mode < stressModes; mode++ {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(1000*mode + n)))
			b := stressRows(rng, n+8, mode)
			for _, lo := range []int{0, 5} {
				label := fmt.Sprintf("stress mode=%d n=%d lo=%d", mode, n, lo)
				assertSameTree(t, label, Build(stressAttrs(), b, lo, lo+n), referenceBuild(stressAttrs(), b, lo, lo+n))
			}
		}
	}
	// Every key shape the radix sort must order as pdqsort would, at the
	// node sizes where it takes over for one, two and eight passes.
	var shapeSizes []int
	for _, passes := range []int{1, 2, 8} {
		c := radixKeysPerPass * passes
		shapeSizes = append(shapeSizes, c-1, c, c+1)
	}
	shapeSizes = append(shapeSizes, 0, 1, 2, 1000, forkMin+1)
	for shape := 0; shape < keyShapes; shape++ {
		for _, n := range shapeSizes {
			b := keyShapeRows(rand.New(rand.NewSource(int64(100*shape+n))), n+4, shape)
			for _, lo := range []int{0, 4} {
				label := fmt.Sprintf("key shape %d n=%d lo=%d", shape, n, lo)
				assertSameTree(t, label, Build(keyShapeAttrs(), b, lo, lo+n), referenceBuild(keyShapeAttrs(), b, lo, lo+n))
			}
		}
	}
	// Few duplicates, so the distinct count actually straddles forkMin.
	for _, n := range []int{forkMin - 1, forkMin, forkMin + 1, 50000} {
		if testing.Short() && n > forkMin+1 {
			continue
		}
		b := lineitemRows(rand.New(rand.NewSource(int64(n))), n)
		assertSameTree(t, fmt.Sprintf("lineitem n=%d", n), buildAll(lineitemAttrs(), b), referenceBuild(lineitemAttrs(), b, 0, n))
	}
}

// FuzzBuildMatchesReference drives the same differential from fuzzed
// (seed, size, mode) triples: modes below stressModes draw stressRows, the
// rest keyShapeRows.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1))
	f.Add(int64(3), uint16(300), uint8(2))
	f.Add(int64(4), uint16(1000), uint8(3))
	f.Add(int64(5), uint16(1000), uint8(4))
	for shape := 0; shape < keyShapes; shape++ {
		f.Add(int64(6+shape), uint16(radixKeysPerPass*(1+shape)), uint8(stressModes+shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		attrs, b := stressAttrs(), (*relation.Block)(nil)
		if m := int(mode) % (stressModes + keyShapes); m < stressModes {
			b = stressRows(rng, int(n%2048), m)
		} else {
			attrs, b = keyShapeAttrs(), keyShapeRows(rng, int(n%2048), m-stressModes)
		}
		assertSameTree(t, "fuzz", buildAll(attrs, b), referenceBuild(attrs, b, 0, b.Rows()))
	})
}

// The fork changes who builds a subtree, never what is built.
func TestBuildWorkerInvariance(t *testing.T) {
	n := 4 * forkMin
	if testing.Short() {
		n = forkMin + forkMin/2
	}
	b := lineitemRows(rand.New(rand.NewSource(11)), n)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := buildAll(lineitemAttrs(), b)
	runtime.GOMAXPROCS(4)
	four := buildAll(lineitemAttrs(), b)
	assertSameTree(t, "GOMAXPROCS 4 vs 1", four, one)
}

// Building tree after tree through one Scratch must build each exactly as
// a fresh Build does, whatever the Scratch built before: ranges growing and
// shrinking across the merge table's reuse and re-make thresholds, empty
// and single-point ranges, every stress mode, and AppendLevels — appending
// build after build to one listing, as a build worker does — equal to
// AllLevels of the same tree.
func TestScratchReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var s Scratch
	var reps []Rep
	var levelSizes []int32
	sizes := []int{500, 3, 0, 1, 40, 2000, 7, 1, 300, 13, 2, 900, 60}
	for i, n := range sizes {
		mode := i % stressModes
		b := stressRows(rng, n+6, mode)
		lo := rng.Intn(6)
		label := fmt.Sprintf("build %d: mode=%d n=%d lo=%d", i, mode, n, lo)
		got := s.Build(stressAttrs(), b, lo, lo+n)
		assertSameTree(t, label, got, referenceBuild(stressAttrs(), b, lo, lo+n))
		r0, s0 := len(reps), len(levelSizes)
		reps, levelSizes = s.AppendLevels(reps, levelSizes)
		levels, all := splitLevels(reps[r0:], levelSizes[s0:]), got.AllLevels()
		if len(levels) != len(all) {
			t.Fatalf("%s: AppendLevels lists %d levels, AllLevels %d", label, len(levels), len(all))
		}
		for k := range all {
			if !slices.EqualFunc(levels[k], all[k], func(a, b Rep) bool {
				return a.Row == b.Row && a.Count == b.Count && slices.EqualFunc(got.MaxDist(a), got.MaxDist(b), func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				})
			}) {
				t.Fatalf("%s: AppendLevels level %d differs from AllLevels", label, k)
			}
		}
	}
}
