package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

func randomItems(rng *rand.Rand, n int) []Item {
	types := []string{"hotel", "bar", "cafe"}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Tuple: relation.Tuple{
				relation.Float(rng.Float64() * 500),
				relation.Int(int64(rng.Intn(6))),
				relation.String(types[rng.Intn(len(types))]),
			},
			Count: 1 + rng.Intn(3),
		}
	}
	return items
}

func TestEmptyTree(t *testing.T) {
	tr := Build(testAttrs(), nil)
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
	it := Item{Tuple: relation.Tuple{relation.Float(10), relation.Int(3), relation.String("bar")}, Count: 5}
	tr := Build(testAttrs(), []Item{it})
	if tr.Count() != 5 || tr.Items() != 1 || tr.ExactLevel() != 0 {
		t.Errorf("counters: count=%d items=%d exact=%d", tr.Count(), tr.Items(), tr.ExactLevel())
	}
	reps := tr.Level(0)
	if len(reps) != 1 || reps[0].Count != 5 || !reps[0].Point.EqualTuple(it.Tuple) {
		t.Errorf("Level(0) = %+v", reps)
	}
	if !allZero(reps[0].MaxDist) {
		t.Errorf("single-item MaxDist = %v", reps[0].MaxDist)
	}
}

func TestLevelCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Build(testAttrs(), randomItems(rng, 200))
	for k := 0; k <= tr.ExactLevel()+1; k++ {
		reps := tr.Level(k)
		if len(reps) > 1<<uint(k) {
			t.Errorf("Level(%d) has %d reps > 2^%d", k, len(reps), k)
		}
	}
}

func TestCountsPreservedAcrossLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 157)
	total := 0
	for _, it := range items {
		total += it.Count
	}
	tr := Build(testAttrs(), items)
	for k := 0; k <= tr.ExactLevel(); k++ {
		sum := 0
		for _, r := range tr.Level(k) {
			sum += r.Count
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
	items := randomItems(rng, 300)
	tr := Build(attrs, items)
	const eps = 1e-9
	for k := 0; k <= tr.ExactLevel(); k++ {
		reps := tr.Level(k)
		res := tr.Resolution(k)
		for _, it := range items {
			covered := false
			for _, r := range reps {
				ok := true
				for a := range attrs {
					d := attrs[a].Dist.Between(it.Tuple[a], r.Point[a])
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
				t.Fatalf("level %d: tuple %v not covered within resolution %v", k, it.Tuple, res)
			}
		}
	}
}

func TestResolutionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Build(testAttrs(), randomItems(rng, 250))
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
	items := randomItems(rng, 120)
	keys := make(map[string]bool, len(items))
	for _, it := range items {
		keys[it.Tuple.Key()] = true
	}
	tr := Build(testAttrs(), items)
	for k := 0; k <= tr.ExactLevel(); k++ {
		for _, r := range tr.Level(k) {
			if !keys[r.Point.Key()] {
				t.Fatalf("level %d representative %v is not an indexed tuple", k, r.Point)
			}
		}
	}
}

func TestTrivialAttributeSpread(t *testing.T) {
	attrs := []relation.Attribute{
		relation.Attr("id", relation.KindInt, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(1)),
	}
	items := []Item{
		{Tuple: relation.Tuple{relation.Int(1), relation.Float(0)}, Count: 1},
		{Tuple: relation.Tuple{relation.Int(2), relation.Float(1)}, Count: 1},
		{Tuple: relation.Tuple{relation.Int(3), relation.Float(2)}, Count: 1},
		{Tuple: relation.Tuple{relation.Int(4), relation.Float(3)}, Count: 1},
	}
	tr := Build(attrs, items)
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
	items := []Item{
		{Tuple: relation.Tuple{relation.Int(7)}, Count: 2},
		{Tuple: relation.Tuple{relation.Int(7)}, Count: 3},
		{Tuple: relation.Tuple{relation.Int(9)}, Count: 1},
	}
	tr := Build(attrs, items)
	// Level 1 should split {7,7} from {9}; the 7-leaf must not split further.
	if tr.ExactLevel() != 1 {
		t.Errorf("ExactLevel = %d, want 1 (identical points form one leaf)", tr.ExactLevel())
	}
	reps := tr.Level(1)
	if len(reps) != 2 {
		t.Fatalf("Level(1) = %d reps, want 2", len(reps))
	}
	for _, r := range reps {
		if v, _ := r.Point[0].AsInt(); v == 7 && r.Count != 5 {
			t.Errorf("collapsed leaf count = %d, want 5", r.Count)
		}
	}
}

func TestLevelClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := Build(testAttrs(), randomItems(rng, 50))
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

func lineitemItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Count: 1, Tuple: relation.Tuple{
			relation.Int(int64(rng.Intn(n/4 + 1))),
			relation.Int(int64(rng.Intn(n/8 + 1))),
			relation.Int(int64(rng.Intn(n/64 + 1))),
			relation.Int(int64(1 + rng.Intn(50))),
			relation.Float(100 + rng.Float64()*100000),
			relation.Float(rng.Float64() * 0.1),
			relation.Int(int64(rng.Intn(2556))),
		}}
	}
	return items
}

var benchTree *Tree

func BenchmarkBuild(b *testing.B) {
	attrs := lineitemAttrs()
	for _, n := range []int{64, 4096, 65536} {
		items := lineitemItems(rand.New(rand.NewSource(7)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree = Build(attrs, items)
			}
		})
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

func randomMixedItems(rng *rand.Rand, n int) []Item {
	types := []string{"hotel", "bar", "cafe"}
	cities := []string{"NYC", "Boston"}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Tuple: relation.Tuple{
				relation.Float(float64(rng.Intn(50)) * 10),
				relation.String(types[rng.Intn(len(types))]),
				relation.String(cities[rng.Intn(len(cities))]),
			},
			Count: 1,
		}
	}
	return items
}

// withinScan is the naive reference for AnyWithin, mirroring the
// dangerous-distance exclusion's withinPerAttr semantics.
func withinScan(attrs []relation.Attribute, items []Item, point relation.Tuple, delta []float64) bool {
	for _, it := range items {
		ok := true
		for a := range attrs {
			d := attrs[a].Dist.Between(point[a], it.Tuple[a])
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
		items := randomMixedItems(rng, 1+rng.Intn(120))
		tr := Build(attrs, items)
		deltas := [][]float64{
			{0, 0, 0},
			{0.2, 0, 0},
			{0.5, 1, 0},
			{math.Inf(1), 1, math.Inf(1)},
			{0.05, 0, math.Inf(1)},
		}
		for probe := 0; probe < 25; probe++ {
			pt := randomMixedItems(rng, 1)[0].Tuple
			for di, delta := range deltas {
				got := tr.AnyWithin(pt, delta)
				want := withinScan(attrs, items, pt, delta)
				if got != want {
					t.Fatalf("trial %d probe %v delta %d (%v): AnyWithin = %v, scan = %v",
						trial, pt, di, delta, got, want)
				}
			}
		}
	}
}

func TestMinMaxDistanceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	attrs := mixedAttrs()
	for trial := 0; trial < 40; trial++ {
		items := randomMixedItems(rng, 1+rng.Intn(120))
		tr := Build(attrs, items)
		for probe := 0; probe < 25; probe++ {
			pt := randomMixedItems(rng, 1)[0].Tuple
			want := math.Inf(1)
			for _, it := range items {
				if d := relation.TupleDistance(attrs, it.Tuple, pt); d < want {
					want = d
				}
			}
			got := tr.MinMaxDistance(pt)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d probe %v: MinMaxDistance = %g, scan = %g", trial, pt, got, want)
			}
		}
	}
}

func TestQueriesOnEmptyTree(t *testing.T) {
	tr := Build(mixedAttrs(), nil)
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
		tree := Build(testAttrs(), randomItems(rand.New(rand.NewSource(int64(n))), n))
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
				if got[i].Count != want[i].Count || got[i].Point.Key() != want[i].Point.Key() {
					t.Fatalf("n=%d level %d rep %d differs", n, k, i)
				}
				for a := range want[i].MaxDist {
					if got[i].MaxDist[a] != want[i].MaxDist[a] {
						t.Fatalf("n=%d level %d rep %d maxdist differs", n, k, i)
					}
				}
			}
		}
	}
}

// referenceBuild is the construction Build replaced, kept verbatim as the
// one oracle: a per-level sort.SliceStable on Value.Less, one heap object
// per node, single goroutine. Build must produce the same tree.
func referenceBuild(attrs []relation.Attribute, items []Item) *Tree {
	t := &Tree{attrs: attrs}
	if len(items) == 0 {
		return t
	}
	byKey := relation.NewTupleMap[int](len(items))
	own := make([]Item, 0, len(items))
	for _, it := range items {
		if i, dup := byKey.Get(it.Tuple); dup {
			own[i].Count += it.Count
			continue
		}
		byKey.Put(it.Tuple, len(own))
		own = append(own, it)
	}
	t.items = len(own)
	for _, it := range own {
		t.count += it.Count
	}
	t.root = t.referenceBuildNode(own, 0)
	return t
}

func (t *Tree) referenceBuildNode(items []Item, depth int) *node {
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	n := &node{maxDist: t.referenceSpread(items)}
	for _, it := range items {
		n.count += it.Count
	}
	n.rep = items[len(items)/2].Tuple
	if len(items) == 1 || allZero(n.maxDist) {
		return n
	}
	dim := splitDim(n.maxDist)
	sort.SliceStable(items, func(i, j int) bool {
		return items[i].Tuple[dim].Less(items[j].Tuple[dim])
	})
	mid := len(items) / 2
	n.rep = items[mid].Tuple
	n.left = t.referenceBuildNode(items[:mid], depth+1)
	n.right = t.referenceBuildNode(items[mid:], depth+1)
	return n
}

func (t *Tree) referenceSpread(items []Item) []float64 {
	out := make([]float64, len(t.attrs))
	for a, attr := range t.attrs {
		switch attr.Dist.Kind {
		case relation.DistNumeric:
			out[a] = numericSpread(items, a, attr.Dist)
		default:
			allEq := true
			first := items[0].Tuple[a]
			for _, it := range items[1:] {
				if !it.Tuple[a].Equal(first) {
					allEq = false
					break
				}
			}
			if !allEq {
				if attr.Dist.Kind == relation.DistDiscrete {
					out[a] = 1
				} else {
					out[a] = math.Inf(1)
				}
			}
		}
	}
	return out
}

// assertSameTree compares everything a caller can observe of two trees.
// reflect.DeepEqual compares floats with ==, so a NaN resolution (possible
// only when the data holds NaN) is compared by bit pattern instead.
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
			if g.Count != w.Count || !reflect.DeepEqual(pointBits(g.Point), pointBits(w.Point)) {
				t.Fatalf("%s: level %d rep %d = (%v,%d), reference (%v,%d)", label, k, i, g.Point, g.Count, w.Point, w.Count)
			}
			for a := range w.MaxDist {
				if math.Float64bits(g.MaxDist[a]) != math.Float64bits(w.MaxDist[a]) {
					t.Fatalf("%s: level %d rep %d maxDist[%d] = %g, reference %g", label, k, i, a, g.MaxDist[a], w.MaxDist[a])
				}
			}
		}
	}
}

// pointBits renders a tuple so that identity, not Equal, is compared: kind,
// and the float payload by bits (NaN ≠ NaN under ==, −0 == +0).
func pointBits(t relation.Tuple) []any {
	out := make([]any, 0, 2*len(t))
	for _, v := range t {
		out = append(out, v.Kind())
		if f, ok := v.AsFloat(); ok && v.Kind() == relation.KindFloat {
			out = append(out, math.Float64bits(f))
		} else {
			out = append(out, v.String())
		}
	}
	return out
}

// stressAttrs covers every distance kind over columns the generators below
// fill with whatever the fast path must not get wrong.
func stressAttrs() []relation.Attribute {
	return []relation.Attribute{
		relation.Attr("a", relation.KindInt, relation.Numeric(10)),
		relation.Attr("b", relation.KindFloat, relation.Numeric(1)),
		relation.Attr("c", relation.KindInt, relation.Trivial()),
		relation.Attr("d", relation.KindString, relation.Discrete()),
	}
}

// stressValue draws one value for a column under a mode:
// 0 clean typed data with heavy ties; 1 adds nulls and strings; 2 mixes Int
// and Float in one column, including ints beyond 2^53 whose float images
// collide; 3 adds ±Inf, −0 and NaN.
func stressValue(rng *rand.Rand, col, mode int) relation.Value {
	const big = int64(1) << 53
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

func stressItems(rng *rand.Rand, n, mode int) []Item {
	items := make([]Item, n)
	for i := range items {
		tup := make(relation.Tuple, 4)
		for c := range tup {
			tup[c] = stressValue(rng, c, mode)
		}
		items[i] = Item{Tuple: tup, Count: 1 + rng.Intn(3)}
	}
	return items
}

// Build must produce the tree referenceBuild produces — same reps, counts,
// per-node maxDist and level order — on clean and on hostile inputs, at the
// sizes around every threshold in the kernel.
func TestBuildMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // fork even on a one-core host
	defer runtime.GOMAXPROCS(prev)
	sizes := []int{0, 1, 2, 3, 12, 13, 100, 1000}
	if !testing.Short() {
		sizes = append(sizes, 50000)
	}
	for mode := 0; mode <= 3; mode++ {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(1000*mode + n)))
			items := stressItems(rng, n, mode)
			label := fmt.Sprintf("stress mode=%d n=%d", mode, n)
			assertSameTree(t, label, Build(stressAttrs(), items), referenceBuild(stressAttrs(), items))
		}
	}
	// Few duplicates, so the distinct count actually straddles forkMin.
	for _, n := range []int{forkMin - 1, forkMin, forkMin + 1, 50000} {
		if testing.Short() && n > forkMin+1 {
			continue
		}
		items := lineitemItems(rand.New(rand.NewSource(int64(n))), n)
		assertSameTree(t, fmt.Sprintf("lineitem n=%d", n), Build(lineitemAttrs(), items), referenceBuild(lineitemAttrs(), items))
	}
}

// FuzzBuildMatchesReference drives the same differential from fuzzed
// (seed, size, mode) triples.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1))
	f.Add(int64(3), uint16(300), uint8(2))
	f.Add(int64(4), uint16(1000), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		items := stressItems(rand.New(rand.NewSource(seed)), int(n%2048), int(mode%4))
		assertSameTree(t, "fuzz", Build(stressAttrs(), items), referenceBuild(stressAttrs(), items))
	})
}

// The fork changes who builds a subtree, never what is built.
func TestBuildWorkerInvariance(t *testing.T) {
	n := 4 * forkMin
	if testing.Short() {
		n = forkMin + forkMin/2
	}
	items := lineitemItems(rand.New(rand.NewSource(11)), n)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := Build(lineitemAttrs(), items)
	runtime.GOMAXPROCS(4)
	four := Build(lineitemAttrs(), items)
	assertSameTree(t, "GOMAXPROCS 4 vs 1", four, one)
}
