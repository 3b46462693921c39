package plan

import (
	"unsafe"

	"repro/internal/freelist"
	"repro/internal/relation"
)

// runScratch is the working memory of one plan run: every fetch step's
// output block and weights, the fetch enumeration's tables and lists, and
// the evaluator's selection vector, pair lists, environments and join
// index. ExecuteOpts takes one from scratchPool and puts it back when the
// run returns; each buffer is emptied where the run takes it, so a warm
// run refills the buffers earlier runs grew instead of allocating them. A
// run that panics drops its scratch, and so does one that grew it beyond
// maxPooledBytes.
// Only the answer — Result.Rel, its value arena and Result.Weights — is
// allocated per run, because it escapes to the caller: nothing of a
// scratch may be reachable from a Result. A scratch serves one run at a
// time; concurrent runs (a plan's concurrent leaves, concurrent callers)
// each take their own.
type runScratch struct {
	// atoms[ai] is atom ai's latest fetched block: one of outs.
	atoms []*blockAtom
	// outs[si] holds fetch step si's output. They are pointers, so growing
	// outs never moves a block a running step reads.
	outs []*blockAtom

	// One fetch step's enumeration state (steps run one at a time).
	ext    []extGroup
	index  relation.ProbeTable
	slab   []relation.Value
	xs     []relation.Tuple
	visits []stepVisit
	fill   relation.Tuple
	x      relation.Tuple

	// The evaluator's state.
	sel        []int32
	eIdx, aIdx []int32
	envs       [2]envBuf
	join       bucketIndex
	exactEq    []*joinSel
	relaxed    []activeJoin
	atomKey    []int
	envKey     []int
}

// extGroup is one external group of a fetch step: its source block and the
// first source row of each of its distinct joint valuations, in row order,
// found through distinct.
type extGroup struct {
	src      *relation.Block
	distinct relation.ProbeTable
	rows     []int32
}

// envBuf is one of the evaluator's two joined environments: each join
// gathers the next environment from the current one, so the two take
// turns.
type envBuf struct {
	block relation.Block
	w     []int
}

// scratchPool holds the idle scratches, at most maxIdleScratches of at
// most maxPooledBytes each: the memory runs keep between them is bounded
// by their product, 64 MiB, and stays allocated (freelist).
var scratchPool = freelist.New[runScratch](maxIdleScratches)

// maxIdleScratches is how many scratches the pool keeps: more than the
// runs in flight at once on the benchmarks (three or four on two
// processors, counting a query's concurrent leaves).
const maxIdleScratches = 8

// maxPooledBytes bounds the scratch memory a run may return to the pool
// (retainedBytes). A run that grew its scratch beyond it — a high α over a
// large D — drops the scratch, so one outlier does not keep O(budget)
// buffers pooled for as long as queries keep coming. A scratch serving
// query after query keeps the largest of each of its buffers, each column
// one payload slice per kind it has held: on the lib_small_d benchmark
// (4000-tuple budgets) it levels off at 4.1 MiB, and a bound of 1 MiB,
// which it crossed once in forty runs, cost more than half the pool's
// gain.
const maxPooledBytes = 8 << 20

// putScratch returns sc to the pool, or drops it when it keeps more than
// maxPooledBytes.
func putScratch(sc *runScratch) {
	if sc.retainedBytes() <= maxPooledBytes {
		scratchPool.Put(sc)
	}
}

// retainedBytes returns the bytes of the buffers that grow with a run's
// data — blocks, tables, slab and lists at their capacity — that the
// scratch keeps for the next run.
func (sc *runScratch) retainedBytes() int {
	const i32, word = 4, 8
	n := sc.index.RetainedBytes() + sc.join.hashes.RetainedBytes() +
		int(unsafe.Sizeof(relation.Value{}))*cap(sc.slab) +
		int(unsafe.Sizeof(relation.Tuple{}))*cap(sc.xs) +
		int(unsafe.Sizeof(stepVisit{}))*cap(sc.visits) +
		i32*(cap(sc.sel)+cap(sc.eIdx)+cap(sc.aIdx)) +
		i32*(cap(sc.join.head)+cap(sc.join.tail)+cap(sc.join.next)+cap(sc.join.rows))
	for _, a := range sc.outs {
		n += a.block.RetainedBytes() + word*cap(a.weights)
	}
	for i := range sc.envs {
		n += sc.envs[i].block.RetainedBytes() + word*cap(sc.envs[i].w)
	}
	for i := range sc.ext {
		n += sc.ext[i].distinct.RetainedBytes() + i32*cap(sc.ext[i].rows)
	}
	return n
}

// stepOut returns fetch step si's output atom over schema, empty, in
// memory earlier runs left.
func (sc *runScratch) stepOut(si int, schema *relation.Schema) *blockAtom {
	for len(sc.outs) <= si {
		sc.outs = append(sc.outs, &blockAtom{block: new(relation.Block)})
	}
	a := sc.outs[si]
	a.schema = schema
	a.block.Reset(schema.Arity())
	a.weights = a.weights[:0]
	return a
}

// extGroups returns n empty external groups.
func (sc *runScratch) extGroups(n int) []extGroup {
	for len(sc.ext) < n {
		sc.ext = append(sc.ext, extGroup{})
	}
	for gi := range sc.ext[:n] {
		g := &sc.ext[gi]
		g.src = nil
		g.distinct.Reset()
		g.rows = g.rows[:0]
	}
	return sc.ext[:n]
}

// nextEnv returns the environment buffer env is not, emptied and set to
// the given width.
func (sc *runScratch) nextEnv(env *relation.Block, width int) *envBuf {
	e := &sc.envs[0]
	if env == &e.block {
		e = &sc.envs[1]
	}
	e.block.Reset(width)
	e.w = e.w[:0]
	return e
}

// bucketIndex buckets a hash join's build rows by the hash of their key:
// one relation.ProbeTable position per distinct hash, heading a chain of
// the entries added under it in insertion order. It is the pointer-free
// form of a map from hash to row list — four int32 slices and a table the
// garbage collector never scans — and reset keeps its memory.
type bucketIndex struct {
	hashes     relation.ProbeTable
	head, tail []int32 // per distinct hash: its first and last entry
	next       []int32 // per entry: the next entry under its hash, -1 at the end
	rows       []int32 // per entry: its build row
}

// anyPos accepts every candidate: a bucketIndex keys positions by hash
// alone, and probes verify the rows of a bucket themselves.
func anyPos(int) bool { return true }

func (b *bucketIndex) reset() {
	b.hashes.Reset()
	b.head, b.tail, b.next, b.rows = b.head[:0], b.tail[:0], b.next[:0], b.rows[:0]
}

// add appends row to the bucket of hash h.
func (b *bucketIndex) add(h uint64, row int32) {
	e := int32(len(b.rows))
	b.rows = append(b.rows, row)
	b.next = append(b.next, -1)
	p, added := b.hashes.Insert(h, anyPos)
	if added {
		b.head = append(b.head, e)
		b.tail = append(b.tail, e)
		return
	}
	b.next[b.tail[p]] = e
	b.tail[p] = e
}

// first returns the first entry of hash h's bucket, or -1 when it is empty;
// next continues the walk in insertion order.
func (b *bucketIndex) first(h uint64) int32 {
	p, ok := b.hashes.Find(h, anyPos)
	if !ok {
		return -1
	}
	return b.head[p]
}
