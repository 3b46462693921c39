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
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/relation"
)

// Rep is one representative at a level: a row of the indexed block (an
// actual indexed point) and the number of indexed rows it represents.
// Tree.MaxDist returns the per-attribute maximum pairwise distance among
// those rows. A Rep holds no pointer, so a level listing kept between
// builds is memory the garbage collector never scans.
type Rep struct {
	Row, Count int32
	dist       int32 // the representative's maxDist row (node.dist)
}

// Tree is an immutable K-D tree over the rows of a block. Its nodes sit in
// one slab and address their right child and their maxDist row by int32
// slot, so the tree's memory is two pointer-free slices.
type Tree struct {
	attrs    []relation.Attribute
	cols     []colView // the block's columns, which the searches read
	nodes    []node    // slot 0 is the root; empty for an empty tree
	dists    []float64 // maxDist row d is dists[d·m : (d+1)·m], m = len(attrs)
	count    int       // number of rows indexed
	items    int       // number of distinct points
	maxDepth int
}

// node is one node of a tree. An interior node at slot s has its left
// child at slot s+1 and its right child at slot right; slot 0 is the root
// and no node's right child, so right = 0 marks a leaf. A leaf's maxDist
// is almost always all zero — a set of points at distance 0, or a single
// point, which is at distance 0 from itself unless a value is infinite —
// and such leaves share row 0 of the maxDist slab: interior nodes and
// single points with an infinite value have rows of their own.
type node struct {
	rep   int32 // the representative's row of the block
	count int32 // the rows represented
	right int32 // the right child's slot; 0 for a leaf
	dist  int32 // the maxDist row
}

// maxDist returns maxDist row d.
func (t *Tree) maxDist(d int32) []float64 {
	m := len(t.attrs)
	lo := int(d) * m
	return t.dists[lo : lo+m : lo+m]
}

// MaxDist returns r's per-attribute maximum pairwise distance among the
// rows it represents; r must be a Rep of t. The slice is the tree's own:
// read-only.
func (t *Tree) MaxDist(r Rep) []float64 { return t.maxDist(r.dist) }

// Scratch is the working memory of a build, kept for the next one:
// building tree after tree through one Scratch reuses its buffers, so a
// run of builds allocates as the buffers grow, not per tree. A Scratch
// serves one Build at a time, and the tree it returns lives in the
// Scratch and is valid until the Scratch's next Build. The buffers that
// grow with the points hold no pointers.
type Scratch struct {
	tree   Tree
	bld    builder
	slab   []int32
	hashes []uint64 // the rows' Block.HashRow, for the merge of identical points
	idx    relation.RowIndex
	cursor []int // AppendLevels' per-level write positions
}

// grown returns buf resized to n elements, reallocated only when its
// capacity is short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Build constructs the tree over rows [lo, hi) of b, each row one point
// standing for one base tuple, in the Scratch's buffers. The attrs describe
// b's columns (names, kinds and distances); b must have one column per
// attribute. The tree reads b — representatives are rows of it, and the
// searches read their values — so b's rows must not change while the tree
// is in use.
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
		// *distinct* points). The rows are hashed column by column first,
		// so the merge table is probed with hashes it need not compute.
		s.slab = grown(s.slab, 3*n)
		rows, bld.counts, bld.tmp = s.slab[:0:n], s.slab[n:2*n], s.slab[2*n:3*n]
		clear(bld.counts)
		s.hashes = grown(s.hashes, n)
		b.HashRows(lo, s.hashes)
		s.idx.Reset(b, n)
		for i, h := range s.hashes {
			r := lo + i
			first := s.idx.AddHashed(r, h)
			if first == r {
				rows = append(rows, int32(r))
			}
			bld.counts[first-lo]++
		}
		bld.keys, bld.keys2 = grown(bld.keys, len(rows)), grown(bld.keys2, len(rows))
		bld.tmp = bld.tmp[:len(rows)]
	}
	t.items = len(rows)
	// A tree over n points has at most 2n−1 nodes, n−1 of them interior;
	// the nodes and the interior nodes' maxDist rows come from two slabs,
	// carved up front by subtree size (see build), so construction
	// allocates per tree at most, not per node, and concurrent subtree
	// builds never contend for slab space. Row 0 is the leaves' zero row;
	// the single points with an infinite value, counted first, take rows
	// after the interior ones in the order they are reached. build writes
	// every node it makes and every row it hands out, so neither slab is
	// cleared.
	m := len(attrs)
	infinite := bld.countInfinite(rows)
	bld.nodes = grown(bld.nodes, 2*len(rows)-1)
	bld.dists = grown(bld.dists, (len(rows)+infinite)*m)
	clear(bld.dists[:m])
	bld.nextInfinite.Store(int32(len(rows)))
	t.maxDepth = bld.build(rows, 0, 0, 1, 0, runtime.GOMAXPROCS(0), -1)
	t.nodes, t.dists = bld.nodes, bld.dists
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

// infinite reports whether row r holds ±Inf.
func (v *colView) infinite(r int32) bool {
	switch v.typed {
	case relation.KindInt, relation.KindString:
		return false
	case relation.KindFloat:
		return math.IsInf(v.floats[r], 0)
	}
	f, ok := v.col.Value(int(r)).AsFloat()
	return ok && math.IsInf(f, 0)
}

// builder is the per-Build scratch state. The recursion on rows[off:off+n]
// of the permutation only ever touches keys, keys2 and tmp at the same
// positions and its own slab slots, so subtrees can be built concurrently
// without synchronisation but for the counter of infinite points' rows.
type builder struct {
	attrs        []relation.Attribute
	cols         []colView
	lo           int
	counts       []int32 // per row r of the build, at r−lo: the rows merged into r
	nodes        []node
	dists        []float64 // maxDist rows, len(attrs) each: see Scratch.Build
	nextInfinite atomic.Int32
	keys         []sortKey
	keys2        []sortKey // the radix sort's second buffer, parallel to keys
	tmp          []int32
}

// isInfinite reports whether row r has an infinite value on a numeric
// attribute: its spread there, ∞ − ∞, is NaN, so it is the one kind of
// single point whose maxDist is not all zero.
func (b *builder) isInfinite(r int32) bool {
	for a, attr := range b.attrs {
		if attr.Dist.Kind == relation.DistNumeric && b.cols[a].infinite(r) {
			return true
		}
	}
	return false
}

// countInfinite returns the number of rows that are isInfinite, skipping
// the scan when no numeric column can hold ±Inf.
func (b *builder) countInfinite(rows []int32) int {
	n := 0
	for a, attr := range b.attrs {
		if t := b.cols[a].typed; attr.Dist.Kind == relation.DistNumeric && t != relation.KindInt && t != relation.KindString {
			for _, r := range rows {
				if b.isInfinite(r) {
					n++
				}
			}
			break
		}
	}
	return n
}

// row returns maxDist row d.
func (b *builder) row(d int) []float64 {
	m := len(b.attrs)
	return b.dists[d*m : (d+1)*m : (d+1)*m]
}

// build constructs the subtree over rows, which sit at offset off of the
// build's permutation, and returns the deepest level it reaches. The
// subtree owns the node slots from slot on and the maxDist rows from inner
// on: its root takes the first of each, the left half (mid rows) the next
// 2·mid−1 slots and mid−1 rows, and the right half the rest. par is the
// number of cores this subtree may use: a node of at least forkMin rows
// with par > 1 builds its left subtree on a new goroutine and splits par
// between the halves, so a build never runs more than GOMAXPROCS goroutines
// and the result does not depend on how many. rows ascend on attribute
// sorted (the parent's split, see sortOnDim), or sorted is -1.
func (b *builder) build(rows []int32, off, slot, inner, depth, par, sorted int) int {
	n := &b.nodes[slot]
	if len(rows) == 1 {
		// Leaf: a single point, at distance 0 from itself unless
		// infinite.
		r := rows[0]
		*n = node{rep: r, count: b.counts[int(r)-b.lo]}
		if b.isInfinite(r) {
			n.dist = b.nextInfinite.Add(1) - 1
			b.spread(rows, b.row(int(n.dist)), -1)
		}
		return depth
	}
	maxDist := b.row(inner)
	b.spread(rows, maxDist, sorted)
	var count int32
	for _, r := range rows {
		count += b.counts[int(r)-b.lo]
	}
	*n = node{rep: rows[len(rows)/2], count: count}
	if allZero(maxDist) {
		// Leaf: a set at pairwise distance 0 on every attribute
		// (indistinguishable under the metric).
		return depth
	}
	n.dist = int32(inner)
	dim := splitDim(maxDist)
	if !b.sortOnDim(rows, off, dim) {
		dim = -1
	}
	mid := len(rows) / 2
	n.rep = rows[mid]
	n.right = int32(slot + 2*mid)
	if par > 1 && len(rows) >= forkMin {
		return b.fork(rows, off, mid, slot, inner, depth, par, dim)
	}
	ld := b.build(rows[:mid], off, slot+1, inner+1, depth+1, 1, dim)
	rd := b.build(rows[mid:], off+mid, slot+2*mid, inner+mid, depth+1, 1, dim)
	return max(ld, rd)
}

// fork is build's recursion into the halves of rows split at mid with the
// left half on a new goroutine. It is a function of its own so that only
// forking nodes pay for the variables the goroutine shares.
func (b *builder) fork(rows []int32, off, mid, slot, inner, depth, par, sorted int) int {
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
		ld = b.build(rows[:mid], off, slot+1, inner+1, depth+1, par/2, sorted)
	}()
	rd := b.build(rows[mid:], off+mid, slot+2*mid, inner+mid, depth+1, par-par/2, sorted)
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

// radixKeysPerPass sets where sortOnDim's radix sort takes over from the
// comparison sort: it sorts a node's keys when there are at least this
// many per counting pass it needs (per key byte in which they differ).
// Measured on two cores over 16-byte records, the radix sort overtakes
// pdqsort at ~30 int keys differing in two bytes and at ~115 float keys
// differing in all eight — about 15 keys a pass; at 4096 keys it is 20×
// (ints) and 6× (floats) faster.
const radixKeysPerPass = 16

// sortOnDim stably sorts rows (at offset off) by Value.Compare on dimension
// dim. A stable sort is the unique permutation ordered by (value, current
// position) whenever Compare is a total preorder on the values present; it
// is one when they are all KindInt (int64 order), all NaN-free KindFloat or
// all KindString, which is every column of a typed relation without nulls.
// A typed string column is stably sorted by strings.Compare straight from
// its payload. A numeric dimension maps each value to an order-preserving
// uint64 key — from the payload of a typed int or float column — and sorts
// 16-byte (key, position) records, built in position order, stably by key:
// by an LSD radix sort over only the key bytes in which the node's keys
// differ when there are radixKeysPerPass keys per pass, else by a merge
// sort (sortKeys). Either way the result is the (key, position) order, and
// the rows are permuted once; rows already ordered on dim (a child
// splitting the dimension its parent just sorted) are left alone. Anything
// else — nulls, Int and Float mixed in one column (float comparison of
// ints beyond 2^53 is not transitive), NaN (equal to everything) — runs
// the generic insertion+merge stable sort with Compare itself.
//
// sortOnDim reports whether rows now ascend on a typed column, by its
// payload order (a key sort of ints or floats, or a string sort): then the
// ends of any run of them are its extremes, which spread reads for the
// children (sortedSpread).
func (b *builder) sortOnDim(rows []int32, off, dim int) bool {
	v := &b.cols[dim]
	if v.typed == relation.KindString {
		sortStrings(rows, v.strs)
		return true
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
			return false
		}
		if i > 0 && k < keys[i-1].key {
			sorted = false
		}
		keys[i] = sortKey{key: k, pos: uint32(i)}
		diff |= k ^ keys[0].key
	}
	typed := v.typed != relation.KindNull
	if sorted {
		return typed
	}
	if buf := b.keys2[off : off+len(rows)]; len(keys) >= radixKeysPerPass*radixPasses(diff) {
		keys = radixSort(keys, buf, diff)
	} else {
		keys = sortKeys(keys, buf)
	}
	tmp := b.tmp[off : off+len(rows)]
	for i, k := range keys {
		tmp[i] = rows[k.pos]
	}
	copy(rows, tmp)
	return typed
}

// insertionRun is the length of the runs sortKeys insertion-sorts before
// merging them. Measured on one core over uniform random float keys, runs
// of 16 sort 16, 32, 64 and 127 keys in 22%, 12%, 14% and 5% less time
// than runs of 12, and within 8% of runs of 24 or 32 either way; that is
// 3.0×, 3.2×, 1.9× and 1.6× faster than pdqsort with a comparison
// closure.
const insertionRun = 16

// sortKeys stably sorts keys by key alone — the (key, position) order,
// since keys are built in position order — with buf (of the same length)
// as the merge buffer, and returns whichever of the two holds the result.
// It is a bottom-up merge sort over insertion-sorted runs and calls no
// comparison function: it sorts the nodes below the radix cutoff, at most
// a few hundred keys.
func sortKeys(keys, buf []sortKey) []sortKey {
	n := len(keys)
	for lo := 0; lo < n; lo += insertionRun {
		run := keys[lo:min(lo+insertionRun, n)]
		for i := 1; i < len(run); i++ {
			k, j := run[i], i
			for ; j > 0 && run[j-1].key > k.key; j-- {
				run[j] = run[j-1]
			}
			run[j] = k
		}
	}
	src, dst := keys, buf
	for w := insertionRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			mergeKeys(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	return src
}

// mergeKeys merges the key-sorted a and b into dst (of their total
// length), a's record first among equal keys.
func mergeKeys(dst, a, b []sortKey) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i].key <= b[j].key) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
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
// rows into out. On attribute sorted, which rows ascend on (sortOnDim), it
// is read from the ends of rows.
func (b *builder) spread(rows []int32, out []float64, sorted int) {
	for a, attr := range b.attrs {
		v := &b.cols[a]
		switch {
		case a == sorted:
			out[a] = v.sortedSpread(rows, attr.Dist)
		case attr.Dist.Kind == relation.DistNumeric:
			out[a] = v.numericSpread(rows, attr.Dist)
		case v.allEqual(rows):
			out[a] = 0
		default:
			out[a] = unequalSpread(attr.Dist)
		}
	}
}

// sortedSpread is what spread finds on a typed column for rows that ascend
// on it, read from their first and last rows: those are the run's
// extremes, and the run is all equal exactly when they are equal. Equal
// float extremes are both taken from the first row, as numericSpread's
// scan takes them from one row: −0 and +0 then give its +0 difference.
func (v *colView) sortedSpread(rows []int32, d relation.Distance) float64 {
	first, last := rows[0], rows[len(rows)-1]
	var lo, hi float64
	var equal bool
	switch v.typed {
	case relation.KindInt:
		lo, hi, equal = float64(v.ints[first]), float64(v.ints[last]), v.ints[first] == v.ints[last]
	case relation.KindFloat:
		lo, hi = v.floats[first], v.floats[last]
		if equal = lo == hi; equal {
			hi = lo
		}
	default: // KindString, which a numeric distance too finds 0 or +inf apart
		if v.strs[first] == v.strs[last] {
			return 0
		}
		if d.Kind == relation.DistNumeric {
			return math.Inf(1)
		}
		return unequalSpread(d)
	}
	switch {
	case d.Kind == relation.DistNumeric:
		return scaled(lo, hi, d)
	case equal:
		return 0
	}
	return unequalSpread(d)
}

// unequalSpread is the spread of a discrete or trivial attribute whose
// values are not all equal: 1 or +inf.
func unequalSpread(d relation.Distance) float64 {
	if d.Kind == relation.DistDiscrete {
		return 1
	}
	return math.Inf(1)
}

// branchlessSpreadRows is the largest node whose float extremes
// numericSpread takes with branchless min and max. Measured on two cores
// over rows of uniform random floats in shuffled order, branchless is
// 2.7× faster than compare-and-keep at 4 rows and 1.1× at 16, where a new
// extreme is frequent enough to defeat branch prediction, and 2× slower
// from 24 rows on, where it is rare and the branches cost nothing.
const branchlessSpreadRows = 16

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
		// Seeded with the first value, the extremes are NaN exactly when
		// it is (a later NaN compares false and is passed over, as it
		// should be) or, branchless, when any value is: the slow scan
		// below then decides. Branchless min and max differ from the
		// compare-and-keep scan only in the sign of a zero extreme, which
		// leaves hi − lo's bits alone.
		lo, hi := v.floats[rows[0]], v.floats[rows[0]]
		if len(rows) <= branchlessSpreadRows {
			for _, r := range rows[1:] {
				f := v.floats[r]
				lo, hi = min(lo, f), max(hi, f)
			}
		} else {
			for _, r := range rows[1:] {
				if f := v.floats[r]; f < lo {
					lo = f
				} else if f > hi {
					hi = f
				}
			}
		}
		if lo == lo && hi == hi {
			return scaled(lo, hi, d)
		}
		// NaN seeds nothing (see valuesSpread): lo stays NaN until the
		// first number.
		lo, hi = math.NaN(), math.NaN()
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

// Items returns the number of distinct points indexed.
func (t *Tree) Items() int { return t.items }

// AppendLevels appends the representatives of every level k in [0,
// ExactLevel] of the tree the Scratch built last to reps, level after
// level, and each level's length to sizes. Level k is the frontier of
// nodes at depth k plus any leaves above it: at most 2^k representatives,
// every indexed tuple within MaxDist (component-wise) of exactly one of
// them. A counting walk sizes the levels and a fill walk writes each
// representative in place, so the listing costs what reps and sizes grow.
func (s *Scratch) AppendLevels(reps []Rep, sizes []int32) ([]Rep, []int32) {
	t := &s.tree
	if len(t.nodes) == 0 {
		return reps, sizes
	}
	at, levels := len(sizes), t.maxDepth+1
	sizes = slices.Grow(sizes, levels)[:at+levels]
	clear(sizes[at:])
	t.countLevels(0, 0, sizes[at:])
	s.cursor = grown(s.cursor, levels)
	next := len(reps)
	for k, c := range sizes[at:] {
		s.cursor[k] = next
		next += int(c)
	}
	reps = slices.Grow(reps, next-len(reps))[:next]
	t.fillLevels(0, 0, reps, s.cursor)
	return reps, sizes
}

// countLevels adds to counts[k] the number of level-k representatives in
// the subtree of node s, which sits at depth.
func (t *Tree) countLevels(s int32, depth int, counts []int32) {
	n := &t.nodes[s]
	if n.right == 0 {
		for k := depth; k <= t.maxDepth; k++ {
			counts[k]++
		}
		return
	}
	counts[depth]++
	t.countLevels(s+1, depth+1, counts)
	t.countLevels(n.right, depth+1, counts)
}

// fillLevels writes the subtree of node s's representatives to reps, each
// level-k one at cursor[k], which it advances.
func (t *Tree) fillLevels(s int32, depth int, reps []Rep, cursor []int) {
	n := &t.nodes[s]
	rep := Rep{Row: n.rep, Count: n.count, dist: n.dist}
	if n.right == 0 {
		for k := depth; k <= t.maxDepth; k++ {
			reps[cursor[k]] = rep
			cursor[k]++
		}
		return
	}
	reps[cursor[depth]] = rep
	cursor[depth]++
	t.fillLevels(s+1, depth+1, reps, cursor)
	t.fillLevels(n.right, depth+1, reps, cursor)
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
	if len(t.nodes) == 0 {
		return false
	}
	var walk func(s int32) bool
	walk = func(s int32) bool {
		n, maxDist := &t.nodes[s], t.maxDist(t.nodes[s].dist)
		within := true
		for a, attr := range t.attrs {
			da := attr.Dist.BetweenRow(point[a], t.cols[a].col, int(n.rep))
			// Prune: the best achievable distance on this attribute
			// exceeds a finite tolerance. (inf − inf is NaN, and NaN
			// comparisons are false, so fully unbounded attributes never
			// prune — exactly the conservative choice.)
			if !math.IsInf(delta[a], 1) && da-maxDist[a] > delta[a]+pruneSlack(da, maxDist[a]) {
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
		if n.right == 0 {
			return false
		}
		return walk(s+1) || walk(n.right)
	}
	return walk(0)
}

// MinMaxDistance returns the minimum over indexed points u of the tuple
// distance max_A dis_A(point[A], u[A]) (paper §3.1), or +inf for an empty
// tree. point must have the tree's arity. Subtrees whose triangle-
// inequality lower bound cannot beat the current best are pruned.
func (t *Tree) MinMaxDistance(point relation.Tuple) float64 {
	best := math.Inf(1)
	var walk func(s int32)
	walk = func(s int32) {
		n, maxDist := &t.nodes[s], t.maxDist(t.nodes[s].dist)
		repD, lb := 0.0, 0.0
		for a, attr := range t.attrs {
			da := attr.Dist.BetweenRow(point[a], t.cols[a].col, int(n.rep))
			if da > repD {
				repD = da
			}
			// da − maxDist lower-bounds every subtree point's distance on
			// this attribute (rounding slack keeps pruning conservative);
			// NaN (inf − inf) never raises the bound.
			if l := da - maxDist[a] - pruneSlack(da, maxDist[a]); l > lb {
				lb = l
			}
		}
		if lb > best {
			return
		}
		if repD < best {
			best = repD
		}
		if n.right != 0 {
			walk(s + 1)
			walk(n.right)
		}
	}
	if len(t.nodes) > 0 {
		walk(0)
	}
	return best
}
