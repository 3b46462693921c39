// Package kdtree implements the balanced K-D tree used to build the indices
// of the generic access schema At (paper §4.1 "Implementation").
//
// Tuples of a relation are treated as m-dimensional points under the
// per-attribute distance functions. Level k of the tree yields at most 2^k
// representative tuples together with a per-attribute resolution
// d̄k[B] = max over level-k nodes t of the maximum pairwise distance on B
// among the tuples represented by t — exactly the quantity the paper assigns
// to the access template ψk.
//
// The tree is bucketed: interior nodes split their tuple set positionally at
// the median of the dimension with the largest current spread, which greedily
// maximises the resolution gain d̄k − d̄k+1 when "zooming in" one level, as
// §4.1 argues for K-D trees.
package kdtree

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"

	"repro/internal/relation"
)

// Rep is one representative at a level: a row of the indexed block (an
// actual indexed point), the number of indexed rows it represents, and the
// per-attribute maximum pairwise distance among those rows.
type Rep struct {
	Row     int
	Count   int
	MaxDist []float64
}

// Tree is an immutable K-D tree over the rows of a block.
type Tree struct {
	attrs    []relation.Attribute
	cols     []colView // the block's columns, which the searches read
	root     *node
	count    int // number of rows indexed
	items    int // number of distinct points
	maxDepth int
}

type node struct {
	rep         int32 // the representative's row of the block
	count       int
	maxDist     []float64
	left, right *node
}

// Build constructs the tree over rows [lo, hi) of b, each row one point
// standing for one base tuple. The attrs describe b's columns (names, kinds
// and distances); b must have one column per attribute. The tree reads b —
// representatives are rows of it, and the searches read their values — so
// b's rows must not change while the tree is in use.
func Build(attrs []relation.Attribute, b *relation.Block, lo, hi int) *Tree {
	return new(Scratch).Build(attrs, b, lo, hi)
}

// Scratch is the working memory of Build, kept for the next one: building
// tree after tree through one Scratch reuses its buffers, so a run of
// builds allocates as the buffers grow, not per tree. A Scratch serves one
// Build at a time, and the tree it returns — with the Reps of its levels —
// lives in the Scratch and is valid until the Scratch's next Build.
type Scratch struct {
	tree Tree
	bld  builder
	slab []int32
	idx  relation.RowIndex
	lv   levelBufs
}

// levelBufs are the buffers a level listing is built in.
type levelBufs struct {
	counts []int
	reps   []Rep
	levels [][]Rep
}

// grown returns buf resized to n elements, reallocated only when its
// capacity is short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Build is the package Build through the Scratch's buffers.
func (s *Scratch) Build(attrs []relation.Attribute, b *relation.Block, lo, hi int) *Tree {
	t := &s.tree
	*t = Tree{attrs: attrs, cols: t.cols}
	n := hi - lo
	if n <= 0 {
		return t
	}
	if hi > math.MaxInt32 {
		panic("kdtree: row index beyond int32")
	}
	t.count = n
	t.cols = grown(t.cols, len(attrs))
	for a := range attrs {
		t.cols[a] = viewOf(b.Col(a))
	}
	bld := &s.bld
	*bld = builder{attrs: attrs, lo: lo, cols: t.cols, nodes: bld.nodes, dists: bld.dists, keys: bld.keys, keys2: bld.keys2}
	var rows []int32
	if n == 1 { // a single point is a leaf: nothing is merged or sorted
		s.slab = grown(s.slab, 2)
		s.slab[0], s.slab[1] = int32(lo), 1
		rows, bld.counts = s.slab[:1], s.slab[1:2]
	} else {
		// One int32 slab holds the distinct rows (permuted by the build),
		// the per-row counts and the permutation scratch. Merging identical
		// points makes duplicates share one leaf with their counts
		// accumulated, which keeps ExactLevel at ceil(log2 of the number of
		// *distinct* points).
		s.slab = grown(s.slab, 3*n)
		clear(s.slab)
		rows, bld.counts, bld.tmp = s.slab[:0:n], s.slab[n:2*n], s.slab[2*n:3*n]
		s.idx.Reset(b, n)
		for r := lo; r < hi; r++ {
			first := s.idx.Add(r)
			if first == r {
				rows = append(rows, int32(r))
			}
			bld.counts[first-lo]++
		}
		bld.keys, bld.keys2 = grown(bld.keys, len(rows)), grown(bld.keys2, len(rows))
		bld.tmp = bld.tmp[:len(rows)]
	}
	t.items = len(rows)
	// A tree over n points has at most 2n−1 nodes. The nodes and their
	// maxDist rows come from two slabs, carved up front by subtree size (see
	// build), so construction allocates per tree at most, not per node, and
	// concurrent subtree builds never contend for slab space.
	bld.nodes = grown(bld.nodes, 2*len(rows)-1)
	bld.dists = grown(bld.dists, (2*len(rows)-1)*len(attrs))
	clear(bld.nodes)
	clear(bld.dists)
	t.maxDepth = bld.build(rows, 0, 0, 0, runtime.GOMAXPROCS(0))
	t.root = &bld.nodes[0]
	return t
}

// forkMin is the smallest node whose two subtrees are built concurrently.
// Measured on two cores over 7-D lineitem-shaped points, forking from the
// root builds 16384 points 1.5× faster, 4096 points 1.4×, 2048 points 1.25×
// and 1024 points within noise of not forking: below ~2k points the
// goroutine hand-off costs what the second core returns.
const forkMin = 2048

// colView is one column as the build reads it: straight from the typed
// payload when every row is a non-null int, float or string, through
// Column.Value otherwise.
type colView struct {
	col    *relation.Column
	ints   []int64
	floats []float64
	strs   []string
	typed  relation.Kind // KindInt, KindFloat or KindString for a typed payload, else KindNull
}

func viewOf(c *relation.Column) colView {
	v := colView{col: c}
	if ints, ok := c.Ints(); ok {
		v.ints, v.typed = ints, relation.KindInt
	} else if floats, ok := c.Floats(); ok {
		v.floats, v.typed = floats, relation.KindFloat
	} else if strs, ok := c.Strings(); ok {
		v.strs, v.typed = strs, relation.KindString
	}
	return v
}

// builder is the per-Build scratch state. The recursion on rows[off:off+n]
// of the permutation only ever touches keys, keys2 and tmp at the same
// positions and its own 2n−1 slab slots, so subtrees can be built
// concurrently without synchronisation.
type builder struct {
	attrs  []relation.Attribute
	cols   []colView
	lo     int
	counts []int32 // per row r of the build, at r−lo: the rows merged into r
	nodes  []node
	dists  []float64 // maxDist rows, len(attrs) per node, parallel to nodes
	keys   []sortKey
	keys2  []sortKey // the radix sort's second buffer, parallel to keys
	tmp    []int32
}

// build constructs the subtree over rows, which sit at offset off of the
// build's permutation, and returns the deepest level it reaches. The
// subtree owns the slab slots from slot on: its root takes the first, the
// left half (mid rows) the next 2·mid−1 and the right half the rest. par is
// the number of cores this subtree may use: a node of at least forkMin rows
// with par > 1 builds its left subtree on a new goroutine and splits par
// between the halves, so a build never runs more than GOMAXPROCS goroutines
// and the result does not depend on how many.
func (b *builder) build(rows []int32, off, slot, depth, par int) int {
	m := len(b.attrs)
	n := &b.nodes[slot]
	n.maxDist = b.dists[slot*m : (slot+1)*m : (slot+1)*m]
	b.spread(rows, n.maxDist)
	for _, r := range rows {
		n.count += int(b.counts[int(r)-b.lo])
	}
	n.rep = rows[len(rows)/2]
	if len(rows) == 1 || allZero(n.maxDist) {
		// Leaf: a single point, or a set at pairwise distance 0 on every
		// attribute (indistinguishable under the metric).
		return depth
	}
	b.sortOnDim(rows, off, splitDim(n.maxDist))
	mid := len(rows) / 2
	n.rep = rows[mid]
	left, right := slot+1, slot+2*mid
	n.left, n.right = &b.nodes[left], &b.nodes[right]
	if par > 1 && len(rows) >= forkMin {
		return b.fork(rows, off, mid, left, right, depth, par)
	}
	ld := b.build(rows[:mid], off, left, depth+1, 1)
	rd := b.build(rows[mid:], off+mid, right, depth+1, 1)
	return max(ld, rd)
}

// fork is build's recursion into the halves of rows split at mid with the
// left half on a new goroutine. It is a function of its own so that only
// forking nodes pay for the variables the goroutine shares.
func (b *builder) fork(rows []int32, off, mid, left, right, depth, par int) int {
	// A panic on the forked goroutine is re-raised here so the caller's
	// containment sees it.
	var ld int
	var perr any
	done := make(chan struct{})
	go func() {
		defer func() {
			perr = recover()
			close(done)
		}()
		ld = b.build(rows[:mid], off, left, depth+1, par/2)
	}()
	rd := b.build(rows[mid:], off+mid, right, depth+1, par-par/2)
	<-done
	if perr != nil {
		panic(perr)
	}
	return max(ld, rd)
}

// sortKey is one record of the homogeneous-dimension sort: the value mapped
// to an order-preserving uint64 and the row's current position.
type sortKey struct {
	key uint64
	pos uint32
}

// radixKeysPerPass sets where sortOnDim's radix sort takes over from
// pdqsort: it sorts a node's keys when there are at least this many per
// counting pass it needs (per key byte in which they differ). Measured on
// two cores over 16-byte records, the radix sort overtakes pdqsort at ~30
// int keys differing in two bytes and at ~115 float keys differing in all
// eight — about 15 keys a pass; at 4096 keys it is 20× (ints) and 6×
// (floats) faster.
const radixKeysPerPass = 16

// sortOnDim stably sorts rows (at offset off) by Value.Compare on dimension
// dim. A stable sort is the unique permutation ordered by (value, current
// position) whenever Compare is a total preorder on the values present; it
// is one when they are all KindInt (int64 order), all NaN-free KindFloat or
// all KindString, which is every column of a typed relation without nulls.
// A typed string column is stably sorted by strings.Compare straight from
// its payload. A numeric dimension maps each value to an order-preserving
// uint64 key — from the payload of a typed int or float column — and sorts
// 16-byte (key, position) records, built in position order: by a stable
// LSD radix sort over only the key bytes in which the node's keys differ
// when there are radixKeysPerPass keys per pass, else by the unstable
// pattern-defeating quicksort with position breaking ties. Either way the
// result is the (key, position) order, and the rows are permuted once;
// rows already ordered on dim (a child splitting the dimension its parent
// just sorted) are left alone. Anything else — nulls, Int and Float mixed
// in one column (float comparison of ints beyond 2^53 is not transitive),
// NaN (equal to everything) — runs the generic insertion+merge stable sort
// with Compare itself.
func (b *builder) sortOnDim(rows []int32, off, dim int) {
	v := &b.cols[dim]
	if v.typed == relation.KindString {
		sortStrings(rows, v.strs)
		return
	}
	keys := b.keys[off : off+len(rows)]
	kind := v.col.Value(int(rows[0])).Kind()
	sorted := true
	var diff uint64 // the bits in which some key differs from the first
	for i, r := range rows {
		var k uint64
		ok := true
		switch v.typed {
		case relation.KindInt:
			k = intKey(v.ints[r])
		case relation.KindFloat:
			k, ok = floatKey(v.floats[r])
		default:
			k, ok = orderKey(v.col.Value(int(r)), kind)
		}
		if !ok {
			slices.SortStableFunc(rows, func(x, y int32) int {
				return v.col.Value(int(x)).Compare(v.col.Value(int(y)))
			})
			return
		}
		if i > 0 && k < keys[i-1].key {
			sorted = false
		}
		keys[i] = sortKey{key: k, pos: uint32(i)}
		diff |= k ^ keys[0].key
	}
	if sorted {
		return
	}
	if len(keys) >= radixKeysPerPass*radixPasses(diff) {
		keys = radixSort(keys, b.keys2[off:off+len(rows)], diff)
	} else {
		slices.SortFunc(keys, func(x, y sortKey) int {
			if x.key != y.key {
				return cmp.Compare(x.key, y.key)
			}
			return cmp.Compare(x.pos, y.pos)
		})
	}
	tmp := b.tmp[off : off+len(rows)]
	for i, k := range keys {
		tmp[i] = rows[k.pos]
	}
	copy(rows, tmp)
}

// radixPasses is the number of bytes set in diff: the counting passes
// radixSort makes.
func radixPasses(diff uint64) int {
	n := 0
	for ; diff != 0; diff >>= 8 {
		if diff&0xff != 0 {
			n++
		}
	}
	return n
}

// radixSort stably sorts keys by key with one counting pass per byte that
// is set in diff, least significant first, moving the records between keys
// and buf (of the same length); it returns whichever of the two holds the
// result. Bytes outside diff are equal in every key, so skipping them
// leaves the order a full sort would produce.
func radixSort(keys, buf []sortKey, diff uint64) []sortKey {
	src, dst := keys, buf
	var counts [256]uint32
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff == 0 {
			continue
		}
		clear(counts[:])
		for _, k := range src {
			counts[byte(k.key>>s)]++
		}
		var sum uint32
		for i, n := range counts {
			counts[i], sum = sum, sum+n
		}
		for _, k := range src {
			d := byte(k.key >> s)
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortStrings stably sorts rows by their strings in strs; rows already in
// order are left alone.
func sortStrings(rows []int32, strs []string) {
	for i := 1; i < len(rows); i++ {
		if strs[rows[i]] < strs[rows[i-1]] {
			slices.SortStableFunc(rows, func(x, y int32) int {
				return strings.Compare(strs[x], strs[y])
			})
			return
		}
	}
}

// orderKey maps a value of the given numeric kind to a uint64 that orders
// as Value.Compare orders values of that kind. It reports false for a value
// of any other kind, a non-numeric kind, and NaN.
func orderKey(v relation.Value, kind relation.Kind) (uint64, bool) {
	if v.Kind() != kind {
		return 0, false
	}
	switch kind {
	case relation.KindInt:
		i, _ := v.AsInt()
		return intKey(i), true
	case relation.KindFloat:
		f, _ := v.AsFloat()
		return floatKey(f)
	}
	return 0, false
}

func intKey(i int64) uint64 { return uint64(i) ^ 1<<63 }

// floatKey is orderKey for a float; it reports false for NaN.
func floatKey(f float64) (uint64, bool) {
	if f != f {
		return 0, false
	}
	if f == 0 {
		f = 0 // −0 and +0 are equal under Compare
	}
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		return ^bits, true
	}
	return bits | 1<<63, true
}

// spread computes, per attribute, the maximum pairwise distance within
// rows into out (all zero on entry).
func (b *builder) spread(rows []int32, out []float64) {
	for a, attr := range b.attrs {
		v := &b.cols[a]
		if attr.Dist.Kind == relation.DistNumeric {
			out[a] = v.numericSpread(rows, attr.Dist)
		} else if !v.allEqual(rows) {
			out[a] = unequalSpread(attr.Dist)
		}
	}
}

// unequalSpread is the spread of a discrete or trivial attribute whose
// values are not all equal: 1 or +inf.
func unequalSpread(d relation.Distance) float64 {
	if d.Kind == relation.DistDiscrete {
		return 1
	}
	return math.Inf(1)
}

// numericSpread is valuesSpread over the given rows of the column, read
// from the typed payload when there is one.
func (v *colView) numericSpread(rows []int32, d relation.Distance) float64 {
	switch v.typed {
	case relation.KindInt:
		lo, hi := v.ints[rows[0]], v.ints[rows[0]]
		for _, r := range rows[1:] {
			lo, hi = min(lo, v.ints[r]), max(hi, v.ints[r])
		}
		// float64 is monotone, so this is the spread of the float images.
		return scaled(float64(lo), float64(hi), d)
	case relation.KindFloat:
		// NaN seeds nothing (see valuesSpread): lo stays NaN until the
		// first number.
		lo, hi := math.NaN(), math.NaN()
		for _, r := range rows {
			f := v.floats[r]
			if lo != lo {
				lo, hi = f, f
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if lo != lo {
			return 0
		}
		return scaled(lo, hi, d)
	}
	return valuesSpread(len(rows), func(i int) relation.Value { return v.col.Value(int(rows[i])) }, d)
}

// allEqual is valuesEqual over the given rows of the column.
func (v *colView) allEqual(rows []int32) bool {
	switch v.typed {
	case relation.KindInt:
		first := v.ints[rows[0]]
		for _, r := range rows[1:] {
			if v.ints[r] != first {
				return false
			}
		}
		return true
	case relation.KindFloat:
		// Compare finds floats equal unless one orders before the other,
		// so NaN equals everything and the first number decides.
		first := math.NaN()
		for _, r := range rows {
			if f := v.floats[r]; first != first {
				first = f
			} else if f < first || f > first {
				return false
			}
		}
		return true
	case relation.KindString:
		first := v.strs[rows[0]]
		for _, r := range rows[1:] {
			if v.strs[r] != first {
				return false
			}
		}
		return true
	}
	return valuesEqual(len(rows), func(i int) relation.Value { return v.col.Value(int(rows[i])) })
}

// valuesEqual reports whether the n values at(0..n) are pairwise
// Value.Equal: the zero-spread test of a discrete or trivial attribute.
// They are compared with the first value that is not NaN: NaN equals every
// number, so a leading NaN would find 3 and 7.5 both equal to it.
func valuesEqual(n int, at func(i int) relation.Value) bool {
	seed := 0
	for seed < n-1 && isNaN(at(seed)) {
		seed++
	}
	first := at(seed)
	for i := 0; i < n; i++ {
		if !at(i).Equal(first) {
			return false
		}
	}
	return true
}

// isNaN reports whether v is a float NaN.
func isNaN(v relation.Value) bool {
	f, ok := v.AsFloat()
	return ok && f != f
}

// valuesSpread is the maximum pairwise distance, under the numeric
// distance d, among the n values at(0..n).
func valuesSpread(n int, at func(i int) relation.Value, d relation.Distance) float64 {
	var lo, hi float64
	seen := false
	nulls, nonNumeric, nans := 0, 0, 0
	for i := 0; i < n; i++ {
		v := at(i)
		if v.IsNull() {
			nulls++
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			nonNumeric++
			continue
		}
		if f != f {
			// NaN is a number at distance NaN from every number, which no
			// resolution is exceeded by: it takes part in the mixing rule
			// below but not in the extremes.
			nans++
			continue
		}
		if !seen {
			lo, hi, seen = f, f, true
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	// Mixing nulls or non-numeric values with numbers makes the pairwise
	// distance unbounded under the numeric distance's fallback behaviour.
	numeric := seen || nans > 0
	if (nulls > 0 && (numeric || nonNumeric > 0)) || (nonNumeric > 0 && numeric) {
		return math.Inf(1)
	}
	if nonNumeric > 1 {
		// All non-numeric: unequal pairs are at +inf, equal all-round is 0.
		if !valuesEqual(n, at) {
			return math.Inf(1)
		}
		return 0
	}
	if !seen {
		return 0
	}
	return scaled(lo, hi, d)
}

// scaled is the numeric distance between the extremes lo and hi.
func scaled(lo, hi float64, d relation.Distance) float64 {
	scale := d.Scale
	if scale <= 0 {
		scale = 1
	}
	return (hi - lo) / scale
}

// splitDim picks the dimension to split: the largest *finite* spread, since
// splitting an unbounded (trivial-distance) dimension cannot reduce its
// resolution before the nodes become singletons, while splitting a finite
// dimension halves its spread — the greedy resolution-gain rule of §4.1.
// When every positive spread is unbounded, an unbounded dimension is split
// so the tree still converges to exactness.
func splitDim(spread []float64) int {
	bestFinite, bestFiniteV := -1, 0.0
	bestAny, bestAnyV := 0, math.Inf(-1)
	for i, v := range spread {
		if v > bestAnyV {
			bestAny, bestAnyV = i, v
		}
		if !math.IsInf(v, 1) && v > bestFiniteV {
			bestFinite, bestFiniteV = i, v
		}
	}
	if bestFinite >= 0 {
		return bestFinite
	}
	return bestAny
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of rows indexed.
func (t *Tree) Count() int { return t.count }

// Items returns the number of distinct points indexed.
func (t *Tree) Items() int { return t.items }

// ExactLevel returns the smallest level k at which Level(k) represents the
// data exactly (every representative has all-zero resolution). It equals the
// tree depth; ceil(log2 n) for n distinct points.
func (t *Tree) ExactLevel() int { return t.maxDepth }

// Level returns the representatives at level k: the frontier of nodes at
// depth k plus any leaves above it. len(result) <= 2^k, and every indexed
// tuple is within Rep.MaxDist (component-wise) of exactly one representative.
// Negative k behaves as 0; k beyond ExactLevel behaves as ExactLevel.
func (t *Tree) Level(k int) []Rep {
	if t.root == nil {
		return nil
	}
	if k < 0 {
		k = 0
	}
	var reps []Rep
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if depth == k || n.left == nil {
			reps = append(reps, Rep{Row: int(n.rep), Count: n.count, MaxDist: n.maxDist})
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(t.root, 0)
	return reps
}

// AllLevels returns Level(k) for every k in [0, ExactLevel] in one pass:
// a counting walk sizes each level exactly, a fill walk appends into
// capacity-pinned sub-slices of one backing array, and the per-level
// contents and order are identical to calling Level(k) per level (asserted
// by TestAllLevelsMatchesLevel). Materialising every level is the warm-path
// bulk operation of the access layer, where the per-level walks and
// re-allocations of repeated Level calls actually show up.
func (t *Tree) AllLevels() [][]Rep {
	return t.levelsInto(&levelBufs{})
}

// Levels is AllLevels of the tree the Scratch built last, in the Scratch's
// buffers: valid until its next Build or Levels.
func (s *Scratch) Levels() [][]Rep {
	return s.tree.levelsInto(&s.lv)
}

// levelsInto is AllLevels built in b's buffers, which it grows as needed.
func (t *Tree) levelsInto(b *levelBufs) [][]Rep {
	if t.root == nil {
		return nil
	}
	b.counts = grown(b.counts, t.maxDepth+1)
	clear(b.counts)
	t.countLevels(t.root, 0, b.counts)
	total := 0
	for _, c := range b.counts {
		total += c
	}
	b.reps, b.levels = grown(b.reps, total), grown(b.levels, t.maxDepth+1)
	off := 0
	for k, c := range b.counts {
		b.levels[k] = b.reps[off : off : off+c]
		off += c
	}
	t.fillLevels(t.root, 0, b.levels)
	return b.levels
}

// countLevels adds to counts[k] the number of level-k representatives in
// the subtree of n, which sits at depth.
func (t *Tree) countLevels(n *node, depth int, counts []int) {
	if n.left == nil {
		for k := depth; k <= t.maxDepth; k++ {
			counts[k]++
		}
		return
	}
	counts[depth]++
	t.countLevels(n.left, depth+1, counts)
	t.countLevels(n.right, depth+1, counts)
}

// fillLevels appends the subtree of n's representatives to their levels.
func (t *Tree) fillLevels(n *node, depth int, out [][]Rep) {
	rep := Rep{Row: int(n.rep), Count: n.count, MaxDist: n.maxDist}
	if n.left == nil {
		for k := depth; k <= t.maxDepth; k++ {
			out[k] = append(out[k], rep)
		}
		return
	}
	out[depth] = append(out[depth], rep)
	t.fillLevels(n.left, depth+1, out)
	t.fillLevels(n.right, depth+1, out)
}

// pruneSlack over-approximates the floating-point rounding of the triangle
// lower bound da − maxDist: the bound holds exactly in real arithmetic, but
// each distance carries relative rounding error, so pruning compares
// against the tolerance with this slack added. Slack only makes pruning
// more conservative (extra node visits), never changes results.
func pruneSlack(da, maxDist float64) float64 {
	s := 1 + math.Abs(da)
	if !math.IsInf(maxDist, 1) {
		s += maxDist
	}
	return 1e-9 * s
}

// AnyWithin reports whether some indexed point u is within delta of point
// on every attribute: dis_A(point[A], u[A]) ≤ delta[A], with two +inf
// distances counting as within (matching the dangerous-distance exclusion
// of §6). point must have the tree's arity.
//
// Subtrees are pruned with the triangle inequality: every subtree point u
// satisfies dis(point, u) ≥ dis(point, rep) − maxDist on each attribute
// (rep belongs to the subtree and maxDist bounds its pairwise diameter), so
// a subtree whose lower bound exceeds a finite delta[A] cannot contain a
// match. The attribute distances are metrics by the package contract.
func (t *Tree) AnyWithin(point relation.Tuple, delta []float64) bool {
	if t.root == nil {
		return false
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		within := true
		for a, attr := range t.attrs {
			da := attr.Dist.BetweenRow(point[a], t.cols[a].col, int(n.rep))
			// Prune: the best achievable distance on this attribute
			// exceeds a finite tolerance. (inf − inf is NaN, and NaN
			// comparisons are false, so fully unbounded attributes never
			// prune — exactly the conservative choice.)
			if !math.IsInf(delta[a], 1) && da-n.maxDist[a] > delta[a]+pruneSlack(da, n.maxDist[a]) {
				return false
			}
			if within && da > delta[a] && !(math.IsInf(da, 1) && math.IsInf(delta[a], 1)) {
				within = false
			}
		}
		if within {
			// The representative is an indexed point; for multi-point
			// leaves the members are at pairwise distance 0 from it, so
			// checking rep decides the whole leaf.
			return true
		}
		if n.left == nil {
			return false
		}
		return walk(n.left) || walk(n.right)
	}
	return walk(t.root)
}

// MinMaxDistance returns the minimum over indexed points u of the tuple
// distance max_A dis_A(point[A], u[A]) (paper §3.1), or +inf for an empty
// tree. point must have the tree's arity. Subtrees whose triangle-
// inequality lower bound cannot beat the current best are pruned.
func (t *Tree) MinMaxDistance(point relation.Tuple) float64 {
	best := math.Inf(1)
	var walk func(n *node)
	walk = func(n *node) {
		repD, lb := 0.0, 0.0
		for a, attr := range t.attrs {
			da := attr.Dist.BetweenRow(point[a], t.cols[a].col, int(n.rep))
			if da > repD {
				repD = da
			}
			// da − maxDist lower-bounds every subtree point's distance on
			// this attribute (rounding slack keeps pruning conservative);
			// NaN (inf − inf) never raises the bound.
			if l := da - n.maxDist[a] - pruneSlack(da, n.maxDist[a]); l > lb {
				lb = l
			}
		}
		if lb > best {
			return
		}
		if repD < best {
			best = repD
		}
		if n.left != nil {
			walk(n.left)
			walk(n.right)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return best
}

// Resolution returns the per-attribute resolution d̄k at level k: the maximum
// of Rep.MaxDist over the level's representatives (zeros for an empty tree).
func (t *Tree) Resolution(k int) []float64 {
	out := make([]float64, len(t.attrs))
	for _, r := range t.Level(k) {
		for i, d := range r.MaxDist {
			if d > out[i] {
				out[i] = d
			}
		}
	}
	return out
}
