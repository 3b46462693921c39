package access

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Ladder is a family of access templates ψk = R(X → Y, 2^k, d̄k) for
// k = 0..MaxK over a shared index: one K-D tree per distinct X-value. Level
// MaxK has d̄ = 0̄ and doubles as the access constraint R(X → Y, N, 0̄) with
// N the largest group's distinct-Y count.
//
// Groups are kept in a flat directory (directory.go): their X-keys are
// rows of one typed key block, found through a hash table of slot numbers,
// so the online fetch path never materialises string keys, and every other
// field of a group sits in flat int32 and float64 slices. Every group's items
// live in one columnar item store per ladder, and every group's level
// views, as selections of those items, in one arena per ladder; a fetch
// hands out a view of them built from the directory's entries.
type Ladder struct {
	RelName string
	X, Y    []string

	xIdx, yIdx  []int // positions of X and Y in the relation's schema
	yAttrs      []relation.Attribute
	maxK        int
	resolutions [][]float64 // [k][|Y|]; max over groups of per-group level-k resolution
	maxDistinct int         // largest distinct-Y count of any group
	dir         groupDir    // every group's key and fields (directory.go)
	levelStore              // every group's item rows and level rows (block.go)
	indexSize   int         // total representatives stored across all groups and levels
}

// BuildLadder scans the relation once and builds the shared index for the
// template family R(X → Y, 2^k, d̄k). X may be empty (the whole relation is
// one group, as in the generic schema At). Per-group K-D tree construction
// fans out over GOMAXPROCS workers; the result is identical to a
// sequential build (groups are independent and each build is
// deterministic).
func BuildLadder(db *relation.Database, rel string, x, y []string) (*Ladder, error) {
	return buildLadderWorkers(db, rel, x, y, runtime.GOMAXPROCS(0))
}

// buildLadderWorkers is BuildLadder with an explicit worker count; tests pin
// workers to 1 to assert the parallel build changes nothing.
func buildLadderWorkers(db *relation.Database, rel string, x, y []string, workers int) (*Ladder, error) {
	l, err := prepareLadder(db, rel, x, y, workers)
	if err != nil {
		return nil, err
	}
	jobs := make([]groupBuild, l.dir.slots())
	for s := range jobs {
		jobs[s] = groupBuild{l: l, slot: s}
	}
	buildGroups(jobs, make([]buildOut, workers))
	packArenas(jobs)
	l.recomputeMeta()
	return l, nil
}

// prepareLadder scans the relation once and returns the ladder shell with
// its item store filled and its groups, in first-occurrence order, in the
// directory but not yet built: each slot holds its X-key and the range of
// its Y-projections, in relation order. The scan files each tuple under
// its group through a scratch key, which the directory copies into its key
// block only for a new group; a prefix sum over the group sizes then gives
// every group its range, and relation.FillBlock copies the projections
// into exact-size columns.
func prepareLadder(db *relation.Database, rel string, x, y []string, workers int) (*Ladder, error) {
	l, r, err := newLadder(db, rel, x, y)
	if err != nil {
		return nil, err
	}
	d := &l.dir
	of := make([]int32, len(r.Tuples)) // each tuple's group
	key := make(relation.Tuple, len(l.xIdx))
	for i, t := range r.Tuples {
		for c, j := range l.xIdx {
			key[c] = t[j]
		}
		s := d.slot(key)
		of[i] = int32(s)
		d.recs[s].itemRows++
	}
	next := make([]int32, d.slots())
	first := int32(0)
	for s := range next {
		d.recs[s].itemFirst, next[s] = first, first
		first += d.recs[s].itemRows
	}
	src := make([]int32, len(of)) // each item's tuple
	for i, s := range of {
		src[next[s]] = int32(i)
		next[s]++
	}
	l.items.y = relation.FillBlock(len(l.yIdx), len(src), func(item, c int) relation.Value {
		return r.Tuples[src[item]][l.yIdx[c]]
	}, workers)
	return l, nil
}

// newLadder returns an empty ladder on rel(X → Y), with the attribute sets
// resolved against the relation's schema, and the relation itself.
func newLadder(db *relation.Database, rel string, x, y []string) (*Ladder, *relation.Relation, error) {
	r, ok := db.Relation(rel)
	if !ok {
		return nil, nil, fmt.Errorf("access: unknown relation %q", rel)
	}
	xIdx, err := r.Schema.Indices(x)
	if err != nil {
		return nil, nil, fmt.Errorf("access: ladder X: %w", err)
	}
	yIdx, err := r.Schema.Indices(y)
	if err != nil {
		return nil, nil, fmt.Errorf("access: ladder Y: %w", err)
	}
	if len(y) == 0 {
		return nil, nil, fmt.Errorf("access: ladder on %s needs at least one Y attribute", rel)
	}
	l := &Ladder{
		RelName: rel,
		X:       append([]string(nil), x...),
		Y:       append([]string(nil), y...),
		xIdx:    xIdx,
		yIdx:    yIdx,
		dir:     groupDir{keys: relation.MakeKeyIndex(len(xIdx))},
	}
	l.items.y = relation.NewBlock(len(yIdx))
	l.yAttrs = make([]relation.Attribute, len(yIdx))
	for i, j := range yIdx {
		l.yAttrs[i] = r.Schema.Attrs[j]
	}
	return l, r, nil
}

// buildGroups rebuilds every job's group on one pool of up to len(outs)
// goroutines, whichever ladders the groups belong to, worker w building in
// outs[w] (emptied of earlier results first, its buffers kept). Largest
// first: the one giant group of a generic ladder (X = ∅, |R| points)
// starts at once on worker 0 — so of memory kept across calls only
// outs[0] grows to the largest group — and forks inside the kd-tree
// build, and the thousands of small groups fill the other workers behind
// it instead of queueing ladder after ladder. Groups are independent and
// the build is deterministic in its item order, so neither the order nor
// the worker count affects the result. The item stores are only read.
func buildGroups(jobs []groupBuild, outs []buildOut) {
	slices.SortStableFunc(jobs, func(a, b groupBuild) int {
		return cmp.Compare(b.l.dir.recs[b.slot].itemRows, a.l.dir.recs[a.slot].itemRows)
	})
	for w := range outs {
		outs[w].reset()
	}
	parallelFor(len(jobs), len(outs), func(w, i int) { jobs[i].build(&outs[w]) })
}

// parallelFor runs f(w, i) for i in [0, n) over at most `workers`
// goroutines (clamped to [1, n]; workers ≤ 1 runs inline), w being the
// goroutine's number in [0, workers): worker w takes index w first, then
// the lowest index no worker has taken. Each index is processed exactly
// once; f must only write state owned by its index or by its worker,
// which keeps results independent of the worker count.
func parallelFor(n, workers int, f func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64 // the lowest index not yet taken
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i = int(next.Add(1) - 1) {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// XIdx returns the positions of X in the relation's schema, in ladder
// order. The slice is the ladder's own: read-only.
func (l *Ladder) XIdx() []int { return l.xIdx }

// YIdx returns the positions of Y in the relation's schema, in ladder
// order. The slice is the ladder's own: read-only.
func (l *Ladder) YIdx() []int { return l.yIdx }

// MaxK returns the top level; Template(MaxK) is exact.
func (l *Ladder) MaxK() int { return l.maxK }

// NumGroups returns the number of distinct X-values indexed.
func (l *Ladder) NumGroups() int { return l.dir.slots() - l.dir.dead }

// MaxGroupDistinct returns the largest group's distinct-Y count: the N of
// the ladder's access-constraint view, and the per-X-value fetch bound that
// tariff estimation uses without touching the data.
func (l *Ladder) MaxGroupDistinct() int { return l.maxDistinct }

// IndexSize returns the number of representative tuples stored across all
// groups and levels (the paper's Exp-4 metric; this is literally the number
// of live rows in the ladder's arena).
func (l *Ladder) IndexSize() int { return l.indexSize }

// Template materialises the level-k template. k is clamped to [0, MaxK].
func (l *Ladder) Template(k int) *Template {
	if k < 0 {
		k = 0
	}
	if k > l.maxK {
		k = l.maxK
	}
	n := 1 << uint(k)
	if l.maxDistinct < n || k == l.maxK {
		n = l.maxDistinct
	}
	if n == 0 {
		n = 1
	}
	res := make([]float64, len(l.Y))
	if len(l.resolutions) > 0 {
		copy(res, l.resolutions[k])
	}
	return &Template{
		Relation:   l.RelName,
		X:          l.X,
		Y:          l.Y,
		N:          n,
		Resolution: res,
		Ladder:     l,
		K:          k,
	}
}

// Constraint returns the exact (d̄ = 0̄) view of the ladder.
func (l *Ladder) Constraint() *Template { return l.Template(l.maxK) }

// Resolution returns d̄k (clamped), without materialising a Template.
func (l *Ladder) Resolution(k int) []float64 {
	if len(l.resolutions) == 0 {
		return make([]float64, len(l.Y))
	}
	if k < 0 {
		k = 0
	}
	if k > l.maxK {
		k = l.maxK
	}
	return l.resolutions[k]
}

// MaxResolution returns max_B d̄k[B] at level k.
func (l *Ladder) MaxResolution(k int) float64 {
	worst := 0.0
	for _, d := range l.Resolution(k) {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// FetchBound returns an upper bound, derivable from the ladder alone, on the
// number of tuples a level-k fetch returns per X-value.
func (l *Ladder) FetchBound(k int) int {
	if k >= l.maxK {
		return l.maxDistinct
	}
	n := 1 << uint(k)
	if n > l.maxDistinct {
		n = l.maxDistinct
	}
	return n
}

// GroupXs returns the X-value tuples of all indexed groups, in unspecified
// order, each spelled as the directory first saw it, all backed by one
// fresh slab. For X = ∅ this is the single empty tuple.
func (l *Ladder) GroupXs() []relation.Tuple {
	d := &l.dir
	keys := d.keys.Keys()
	w := keys.Width()
	slab := make(relation.Tuple, 0, l.NumGroups()*w)
	xs := make([]relation.Tuple, 0, l.NumGroups())
	for s := 0; s < d.slots(); s++ {
		if d.live(s) {
			slab = keys.AppendRowTo(slab, s)
			xs = append(xs, slab[len(slab)-w:len(slab):len(slab)])
		}
	}
	return xs
}

// ExactLevelFor returns the level at which the group of x is represented
// exactly; 0 when the group does not exist.
func (l *Ladder) ExactLevelFor(x relation.Tuple) int {
	s, ok := l.dir.lookup(x)
	if !ok {
		return 0
	}
	return l.dir.exactLevel(s)
}

// Verify checks the conformance invariant D |= ψk for every level of the
// ladder against the database (paper §2.1): each Y-tuple of each group is
// within the level's resolution of some row of its level view. It is
// O(|R| × samples) per level and intended for tests and data-loading
// validation.
func (l *Ladder) Verify(db *relation.Database) error {
	r, ok := db.Relation(l.RelName)
	if !ok {
		return fmt.Errorf("access: verify: unknown relation %q", l.RelName)
	}
	xIdx, err := r.Schema.Indices(l.X)
	if err != nil {
		return err
	}
	yIdx, err := r.Schema.Indices(l.Y)
	if err != nil {
		return err
	}
	const eps = 1e-9
	for k := 0; k <= l.maxK; k++ {
		res := l.Resolution(k)
		for _, t := range r.Tuples {
			xVal := t.Project(xIdx)
			yVal := t.Project(yIdx)
			covered := false
			if blk, ok := l.FetchBlock(xVal, k); ok {
				base, offs := blk.Offsets()
				for i := 0; i < len(offs) && !covered; i++ {
					covered = true
					for a := range l.yAttrs {
						d := l.yAttrs[a].Dist.Between(yVal[a], blk.ItemCol(a).Value(base+int(offs[i])))
						if d > res[a]+eps && !(math.IsInf(d, 1) && math.IsInf(res[a], 1)) {
							covered = false
							break
						}
					}
				}
			}
			if !covered {
				return fmt.Errorf("access: %s level %d: tuple %v not covered within %v", l.RelName, k, t, res)
			}
		}
	}
	return nil
}
