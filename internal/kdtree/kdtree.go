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

	"repro/internal/relation"
)

// Item is a weighted point: a tuple plus the number of base tuples it stands
// for (duplicates are collapsed by callers; Count feeds the count-annotated
// samples that sum/count/avg aggregation needs, §7).
type Item struct {
	Tuple relation.Tuple
	Count int
}

// Rep is one representative at a level: an actual tuple of the indexed data,
// the number of base tuples it represents, and the per-attribute maximum
// pairwise distance among those tuples.
type Rep struct {
	Point   relation.Tuple
	Count   int
	MaxDist []float64
}

// Tree is an immutable K-D tree over weighted tuples.
type Tree struct {
	attrs    []relation.Attribute
	root     *node
	count    int // total base-tuple count
	items    int // number of distinct points
	maxDepth int
}

type node struct {
	rep         relation.Tuple
	count       int
	maxDist     []float64
	left, right *node
}

// Build constructs the tree. The attrs describe the dimensions of every
// tuple (names, kinds and distances); all items must have that arity.
// Build copies the item slice but not the tuples.
func Build(attrs []relation.Attribute, items []Item) *Tree {
	t := &Tree{attrs: attrs}
	if len(items) == 0 {
		return t
	}
	// Merge identical points so duplicates always share one leaf and their
	// counts accumulate; this keeps ExactLevel at ceil(log2 of the number
	// of *distinct* points).
	own := make([]Item, 0, len(items))
	if len(items) == 1 {
		own = append(own, items[0])
	} else {
		byKey := relation.NewTupleMap[int](len(items))
		for _, it := range items {
			if i, dup := byKey.Get(it.Tuple); dup {
				own[i].Count += it.Count
				continue
			}
			byKey.Put(it.Tuple, len(own))
			own = append(own, it)
		}
	}
	t.items = len(own)
	for _, it := range own {
		t.count += it.Count
	}
	// A tree over n points has at most 2n−1 nodes. The nodes and their
	// maxDist rows come from two slabs, carved up front by subtree size (see
	// build), so construction allocates per tree, not per node, and
	// concurrent subtree builds never contend for slab space.
	b := &builder{
		attrs: attrs,
		nodes: make([]node, 2*len(own)-1),
		dists: make([]float64, (2*len(own)-1)*len(attrs)),
	}
	if len(own) > 1 { // a single point is a leaf: nothing is ever sorted
		b.keys = make([]sortKey, len(own))
		b.tmp = make([]Item, len(own))
	}
	t.maxDepth = b.build(own, 0, 0, 0, runtime.GOMAXPROCS(0))
	t.root = &b.nodes[0]
	return t
}

// forkMin is the smallest node whose two subtrees are built concurrently.
// Measured on two cores over 7-D lineitem-shaped points, forking from the
// root builds 16384 points 1.5× faster, 4096 points 1.4×, 2048 points 1.25×
// and 1024 points within noise of not forking: below ~2k points the
// goroutine hand-off costs what the second core returns.
const forkMin = 2048

// builder is the per-Build scratch state. The recursion on items[lo:hi]
// only ever touches keys[lo:hi], tmp[lo:hi] and its own 2(hi−lo)−1 slab
// slots, so subtrees can be built concurrently without synchronisation.
type builder struct {
	attrs []relation.Attribute
	nodes []node
	dists []float64 // maxDist rows, len(attrs) per node, parallel to nodes
	keys  []sortKey
	tmp   []Item
}

// build constructs the subtree over items, which sit at offset lo of the
// build's item slice, and returns the deepest level it reaches. The subtree
// owns the slab slots from slot on: its root takes the first, the left half
// (mid items) the next 2·mid−1 and the right half the rest. par is the
// number of cores this subtree may use: a node of at least forkMin items
// with par > 1 builds its left subtree on a new goroutine and splits par
// between the halves, so a build never runs more than GOMAXPROCS goroutines
// and the result does not depend on how many.
func (b *builder) build(items []Item, lo, slot, depth, par int) int {
	m := len(b.attrs)
	n := &b.nodes[slot]
	n.maxDist = b.dists[slot*m : (slot+1)*m : (slot+1)*m]
	b.spread(items, n.maxDist)
	for _, it := range items {
		n.count += it.Count
	}
	n.rep = items[len(items)/2].Tuple
	if len(items) == 1 || allZero(n.maxDist) {
		// Leaf: a single point, or a set at pairwise distance 0 on every
		// attribute (indistinguishable under the metric).
		return depth
	}
	b.sortOnDim(items, lo, splitDim(n.maxDist))
	mid := len(items) / 2
	n.rep = items[mid].Tuple
	left, right := slot+1, slot+2*mid
	n.left, n.right = &b.nodes[left], &b.nodes[right]
	var ld, rd int
	if par > 1 && len(items) >= forkMin {
		// A panic on the forked goroutine (malformed input: a tuple of the
		// wrong arity) is re-raised here so the caller's containment sees it.
		var perr any
		done := make(chan struct{})
		go func() {
			defer func() {
				perr = recover()
				close(done)
			}()
			ld = b.build(items[:mid], lo, left, depth+1, par/2)
		}()
		rd = b.build(items[mid:], lo+mid, right, depth+1, par-par/2)
		<-done
		if perr != nil {
			panic(perr)
		}
	} else {
		ld = b.build(items[:mid], lo, left, depth+1, 1)
		rd = b.build(items[mid:], lo+mid, right, depth+1, 1)
	}
	return max(ld, rd)
}

// sortKey is one record of the homogeneous-dimension sort: the value mapped
// to an order-preserving uint64 and the item's current position.
type sortKey struct {
	key uint64
	pos uint32
}

// sortOnDim stably sorts items (at offset lo) by Value.Compare on dimension
// dim. A stable sort is the unique permutation ordered by (value, current
// position) whenever Compare is a total preorder on the values present; it
// is one when they are all KindInt (int64 order) or all NaN-free KindFloat,
// which is every numeric column of a typed relation. Those dimensions sort
// 16-byte (key, position) records with the unstable pattern-defeating
// quicksort — position breaks ties, so the result is the stable one — and
// permute the items once; a slice already ordered on dim (a child splitting
// the dimension its parent just sorted) is left alone. Anything else —
// nulls, strings, Int and Float mixed in one column (float comparison of
// ints beyond 2^53 is not transitive), NaN (equal to everything) — runs the
// generic insertion+merge stable sort with Compare itself.
func (b *builder) sortOnDim(items []Item, lo, dim int) {
	keys := b.keys[lo : lo+len(items)]
	kind := items[0].Tuple[dim].Kind()
	sorted := true
	for i := range items {
		k, ok := orderKey(items[i].Tuple[dim], kind)
		if !ok {
			slices.SortStableFunc(items, func(x, y Item) int {
				return x.Tuple[dim].Compare(y.Tuple[dim])
			})
			return
		}
		if i > 0 && k < keys[i-1].key {
			sorted = false
		}
		keys[i] = sortKey{key: k, pos: uint32(i)}
	}
	if sorted {
		return
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return cmp.Compare(x.pos, y.pos)
	})
	tmp := b.tmp[lo : lo+len(items)]
	for i, k := range keys {
		tmp[i] = items[k.pos]
	}
	copy(items, tmp)
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
		return uint64(i) ^ 1<<63, true
	case relation.KindFloat:
		f, _ := v.AsFloat()
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
	return 0, false
}

// spread computes, per attribute, the maximum pairwise distance within
// items into out (all zero on entry).
func (b *builder) spread(items []Item, out []float64) {
	for a, attr := range b.attrs {
		switch attr.Dist.Kind {
		case relation.DistNumeric:
			out[a] = numericSpread(items, a, attr.Dist)
		default:
			// Discrete / trivial: 0 if all equal, else 1 or +inf.
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
}

func numericSpread(items []Item, a int, d relation.Distance) float64 {
	var lo, hi float64
	seen := false
	nulls, nonNumeric := 0, 0
	for _, it := range items {
		v := it.Tuple[a]
		if v.IsNull() {
			nulls++
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			nonNumeric++
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
	if (nulls > 0 && (seen || nonNumeric > 0)) || (nonNumeric > 0 && seen) {
		return math.Inf(1)
	}
	if nonNumeric > 1 {
		// All non-numeric: unequal pairs are at +inf, equal all-round is 0.
		first := items[0].Tuple[a]
		for _, it := range items[1:] {
			if !it.Tuple[a].Equal(first) {
				return math.Inf(1)
			}
		}
		return 0
	}
	if !seen {
		return 0
	}
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

// Count returns the total base-tuple count (sum of item counts).
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
			reps = append(reps, Rep{Point: n.rep, Count: n.count, MaxDist: n.maxDist})
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
	if t.root == nil {
		return nil
	}
	counts := make([]int, t.maxDepth+1)
	var count func(n *node, depth int)
	count = func(n *node, depth int) {
		if n.left == nil {
			for k := depth; k <= t.maxDepth; k++ {
				counts[k]++
			}
			return
		}
		counts[depth]++
		count(n.left, depth+1)
		count(n.right, depth+1)
	}
	count(t.root, 0)
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]Rep, total)
	out := make([][]Rep, t.maxDepth+1)
	off := 0
	for k, c := range counts {
		out[k] = backing[off : off : off+c]
		off += c
	}
	var fill func(n *node, depth int)
	fill = func(n *node, depth int) {
		rep := Rep{Point: n.rep, Count: n.count, MaxDist: n.maxDist}
		if n.left == nil {
			for k := depth; k <= t.maxDepth; k++ {
				out[k] = append(out[k], rep)
			}
			return
		}
		out[depth] = append(out[depth], rep)
		fill(n.left, depth+1)
		fill(n.right, depth+1)
	}
	fill(t.root, 0)
	return out
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
			da := attr.Dist.Between(point[a], n.rep[a])
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
			da := attr.Dist.Between(point[a], n.rep[a])
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
