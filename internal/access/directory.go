package access

import (
	"slices"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// groupDir is a ladder's group directory: where each X-group's items sit in
// the ladder's item store — the raw Y-projections of its base tuples,
// duplicates kept, one row each, that incremental maintenance rebuilds
// from — where its level views sit in the ladder's arena (block.go), its
// per-level resolutions and its distinct-Y count. A group is a slot: row s
// of the key block holds its X-key, found through a relation.KeyIndex, and
// recs[s] its other fields, five int32s. A group's levels are a run of
// level entries, each one (arena first, rows) pair in spans and one row of
// |Y| resolutions in res. Nothing in the directory holds a pointer per
// group, so the collector scans a few flat slices per ladder instead of
// objects per group. The group's K-D tree lives only inside
// groupBuild.build: the views are everything the fetch path and the
// snapshot need of it.
//
// A group that maintenance empties keeps its slot, dead: no items, no
// levels. Lookups skip it, and a later insert of its key revives it.
// Replaced level entries are counted dead and left in place, as rowStore
// does with rows; the slots and the level entries each compact when their
// dead outnumber their live (crowded).
type groupDir struct {
	keys relation.KeyIndex
	recs []slotRec // per slot
	dead int       // dead slots
	// Level entry e selects arena rows [spans[2e], spans[2e]+spans[2e+1]);
	// its resolutions (the max of Rep.MaxDist over the level) are
	// res[e·|Y| : (e+1)·|Y|], so ladder metadata refreshes never re-walk a
	// tree.
	spans      []int32
	res        []float64
	deadLevels int // level entries no slot covers any more
}

// slotRec is one slot's fields, kept together because a fetch reads them
// together: one record per slot costs a lookup one cache line, where a
// column per field would cost one each.
type slotRec struct {
	// The group's items are rows [itemFirst, itemFirst+itemRows) of the
	// item store.
	itemFirst, itemRows int32
	// distinct is the group's distinct-Y count.
	distinct int32
	// The group's levels 0, 1, … are the level entries from lvlFirst on,
	// lvlCount of them. lvlCount = 0 marks a dead slot (or, inside a build
	// or an Apply, one not yet placed).
	lvlFirst, lvlCount int32
}

// slots returns the number of slots, live and dead.
func (d *groupDir) slots() int { return d.keys.Len() }

// live reports whether slot s holds a group.
func (d *groupDir) live(s int) bool { return d.recs[s].lvlCount > 0 }

// liveLevels returns the number of level entries some slot covers.
func (d *groupDir) liveLevels() int { return len(d.spans)/2 - d.deadLevels }

// lookup returns the live slot keyed by x. It never mutates the directory.
func (d *groupDir) lookup(x relation.Tuple) (int, bool) {
	s, ok := d.keys.Find(x)
	if !ok || !d.live(s) {
		return 0, false
	}
	return s, true
}

// slot returns the slot keyed by x, dead or live, adding an empty one (no
// items, no levels) when there is none. x is copied.
func (d *groupDir) slot(x relation.Tuple) int {
	s, added := d.keys.Add(x)
	if added {
		d.recs = append(d.recs, slotRec{})
	}
	return s
}

// items returns slot s's item range.
func (d *groupDir) items(s int) rowRange {
	return rowRange{first: int(d.recs[s].itemFirst), rows: int(d.recs[s].itemRows)}
}

// setItems records r as slot s's item range.
func (d *groupDir) setItems(s int, r rowRange) {
	d.recs[s].itemFirst, d.recs[s].itemRows = int32(r.first), int32(r.rows)
}

// level returns the arena rows [first, first+rows) of slot s's level k,
// with k clamped to [0, exact level], matching kdtree.Tree.Level.
func (d *groupDir) level(s, k int) (first, rows int) {
	r := d.recs[s]
	e := int(r.lvlFirst) + max(0, min(k, int(r.lvlCount)-1))
	return int(d.spans[2*e]), int(d.spans[2*e+1])
}

// exactLevel returns the level at which slot s's group resolves exactly —
// kdtree.Tree.ExactLevel of its tree.
func (d *groupDir) exactLevel(s int) int { return int(d.recs[s].lvlCount) - 1 }

// span returns the arena rows [lo, hi) holding slot s's levels, which are
// adjacent, in level order; empty for a slot with no levels.
func (d *groupDir) span(s int) (lo, hi int) {
	n := int(d.recs[s].lvlCount)
	if n == 0 {
		return 0, 0
	}
	lo, _ = d.level(s, 0)
	first, rows := d.level(s, n-1)
	return lo, first + rows
}

// unplace counts slot s's level entries and their arena rows dead and
// leaves the slot without levels.
func (d *groupDir) unplace(s int, a *levelArena) {
	lo, hi := d.span(s)
	a.dead += hi - lo
	d.deadLevels += int(d.recs[s].lvlCount)
	d.recs[s].lvlCount = 0
}

// packLevels moves the level entries of every slot with levels into fresh
// columns, slot by slot, with room for extra more, and drops the dead ones.
func (d *groupDir) packLevels(extra, arity int) {
	n := d.liveLevels() + extra
	spans, res := make([]int32, 0, 2*n), make([]float64, 0, n*arity)
	for s := range d.recs {
		r := &d.recs[s]
		e, c := int(r.lvlFirst), int(r.lvlCount)
		if c == 0 {
			continue
		}
		r.lvlFirst = int32(len(spans) / 2)
		spans = append(spans, d.spans[2*e:2*(e+c)]...)
		res = append(res, d.res[e*arity:(e+c)*arity]...)
	}
	d.spans, d.res, d.deadLevels = spans, res, 0
}

// compact drops the dead slots, renumbering the live ones in slot order.
// Nothing outside the directory holds a slot number between maintenance
// batches, so this is safe whenever no Apply is in progress.
func (d *groupDir) compact() {
	old := *d
	*d = groupDir{
		keys:  relation.MakeKeyIndex(old.keys.Keys().Width()),
		recs:  make([]slotRec, 0, old.slots()-old.dead),
		spans: old.spans, res: old.res, deadLevels: old.deadLevels,
	}
	for s, r := range old.recs {
		if old.live(s) {
			d.keys.AddRow(old.keys.Keys(), s)
			d.recs = append(d.recs, r)
		}
	}
}

// groupBuild is one unit of index construction: a slot of some ladder
// whose level views are (re)built from its items, and where the rebuild
// left them, until the ladder's arena and directory take them.
type groupBuild struct {
	l    *Ladder
	slot int
	// out holds what build produced: the level rows, level after level, at
	// out.reps[rows.first:rows.end()], rows of the item store from
	// itemFirst on; level k's row count at out.sizes[levels.first+k]; its
	// resolutions at out.res[res+k·|Y| : res+(k+1)·|Y|].
	out          *buildOut
	rows, levels rowRange
	itemFirst    int32
	res          int
	distinct     int32
}

// buildOut is one build worker's memory: the kd-tree scratch it builds
// every tree of its share in turn with, and the results of its share of the
// jobs, appended job after job. A worker building group after group
// therefore allocates as these grow, not per group, and a buildOut kept
// for the next round of builds (Schema.builds) not at all once grown. None
// of the buffers that grow holds a pointer.
type buildOut struct {
	kd    kdtree.Scratch
	reps  []kdtree.Rep
	sizes []int32
	res   []float64
}

// reset empties out of the results of its last round of builds, keeping
// its memory.
func (out *buildOut) reset() {
	out.reps, out.sizes, out.res = out.reps[:0], out.sizes[:0], out.res[:0]
}

// build reconstructs the slot's level views from its items into out: a K-D
// tree over the group's g items — O(g log g) per tree level, independent
// of |D| and of every other group — whose per-level representatives are
// listed straight into out, and whose per-level resolutions are read from
// them before the next build reuses the tree's memory. build only reads the
// ladder, so builds of different slots run concurrently, each worker with
// its own out.
func (j *groupBuild) build(out *buildOut) {
	l := j.l
	items := l.dir.items(j.slot)
	tree := out.kd.Build(l.yAttrs, l.items.y, items.first, items.end())
	j.out, j.distinct, j.itemFirst = out, int32(tree.Items()), int32(items.first)
	j.rows.first, j.levels.first, j.res = len(out.reps), len(out.sizes), len(out.res)
	out.reps, out.sizes = out.kd.AppendLevels(out.reps, out.sizes)
	j.rows.rows, j.levels.rows = len(out.reps)-j.rows.first, len(out.sizes)-j.levels.first
	arity := len(l.yAttrs)
	out.res = slices.Grow(out.res, j.levels.rows*arity)
	reps := out.reps[j.rows.first:]
	for _, n := range out.sizes[j.levels.first:] {
		at := len(out.res)
		out.res = out.res[:at+arity] // within the capacity grown above
		res := out.res[at:]
		clear(res)
		for _, r := range reps[:n] {
			for a, d := range tree.MaxDist(r) {
				if d > res[a] {
					res[a] = d
				}
			}
		}
		reps = reps[n:]
	}
}

// place appends the built rows to the ladder's arena, as offsets into the
// group's items, and the levels to its directory, as the slot's levels.
func (j *groupBuild) place() {
	a, d := &j.l.arena, &j.l.dir
	at := int32(len(a.item))
	for _, r := range j.out.reps[j.rows.first:j.rows.end()] {
		a.item, a.count = append(a.item, r.Row-j.itemFirst), append(a.count, r.Count)
	}
	r := &d.recs[j.slot]
	r.lvlFirst, r.lvlCount, r.distinct = int32(len(d.spans)/2), int32(j.levels.rows), j.distinct
	for _, n := range j.out.sizes[j.levels.first:j.levels.end()] {
		d.spans = append(d.spans, at, n)
		at += n
	}
	d.res = append(d.res, j.out.res[j.res:j.res+j.levels.rows*len(j.l.yAttrs)]...)
}
