package access

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/relation"
)

// This file implements batched incremental maintenance: a sequence of
// insert/delete operations is applied to the base relations and resolved
// against the owning groups' items first, and every dirty group gets its
// new item range and is rebuilt exactly once at the end. A storm of updates
// hitting one hot group therefore costs one rebuild instead of one per
// update, and one pass over the relation and over the group instead of one
// per delete — the amortisation the per-op path cannot provide — and the
// final ladder state is identical to applying the operations one at a time
// (asserted by TestBatchApplyMatchesSequential). The WAL replay of
// internal/persist runs through this path, which is what keeps crash
// recovery fast.

// OpKind identifies one maintenance operation kind.
type OpKind uint8

// Maintenance operation kinds.
const (
	// OpInsert appends Op.Tuple to the relation and its ladder groups.
	OpInsert OpKind = 1 + iota
	// OpDelete removes one occurrence of Op.Tuple from the relation and its
	// ladder groups.
	OpDelete
)

// String returns a human-readable name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one maintenance operation against a named relation.
type Op struct {
	Kind  OpKind
	Rel   string
	Tuple relation.Tuple
}

// pendingDelete is a delete of a batch waiting for the one pass that
// resolves it: against its relation's tuples first, then — carrying the
// tuple actually removed — against the items of each ladder group that
// tuple belongs to.
type pendingDelete struct {
	op    int            // position in the batch: only tuples inserted by earlier ops are visible
	tuple relation.Tuple // what to match
	hit   int            // position of the tuple claimed, -1 when there is none
}

// inserted records where a batch's inserts land in a relation's tuples or a
// group's items: every position from base on holds the tuple appended by op
// births[position−base].
type inserted struct {
	base   int
	births []int
}

// born returns the batch position of the op that inserted the tuple at
// position j, -1 for a tuple that predates the batch.
func (ins inserted) born(j int) int {
	if j < ins.base {
		return -1
	}
	return ins.births[j-ins.base]
}

// relBatch is the part of one Apply that concerns one relation.
type relBatch struct {
	name string
	r    *relation.Relation
	inserted
	ops  []int // the batch's inserts and deletes on r, by position in the batch
	dels []pendingDelete
}

// groupBatch is the part of one Apply that concerns one ladder group: its
// items before the batch (positions [0, base)), the batch's inserts after
// them, and the deletes that reach it.
type groupBatch struct {
	slot int      // the group's directory slot
	old  rowRange // the group's items before the batch
	inserted
	dels []pendingDelete
	drop []int // the positions the deletes claimed, ascending
}

// Apply applies the operations in order against db and the schema's ladders,
// rebuilding each affected group once after the whole batch (and refreshing
// each affected ladder's metadata once). applied[i] reports whether op i
// changed anything — false only for a delete whose tuple was not found. The
// final state is identical to applying the operations individually through
// Insert/Delete: a delete removes the first tuple equal to it that is in the
// relation when its turn comes, tuples inserted earlier in the batch
// included, and the ladders drop the projections of the tuple actually
// removed. Only the work is amortised: inserts land at once, and all deletes
// of a relation, then all deletes of a group, are resolved in one pass over
// its tuples (claimFirstMatches) instead of one scan each. On error the
// batch stops at the failing operation, but the preceding operations are
// still carried through, so the schema is left consistent with the prefix
// that did apply.
func (s *Schema) Apply(db *relation.Database, ops []Op) (applied []bool, err error) {
	applied = make([]bool, len(ops))
	var rels []*relBatch
	byName := make(map[string]*relBatch)
stage:
	for i, op := range ops {
		rb := byName[op.Rel]
		if rb == nil {
			r, ok := db.Relation(op.Rel)
			if !ok {
				err = fmt.Errorf("access: %s into unknown relation %q", op.Kind, op.Rel)
				break
			}
			rb = &relBatch{name: op.Rel, r: r, inserted: inserted{base: len(r.Tuples)}}
			byName[op.Rel] = rb
			rels = append(rels, rb)
		}
		switch op.Kind {
		case OpInsert:
			if err = rb.r.Append(op.Tuple); err != nil {
				break stage
			}
			rb.births = append(rb.births, i)
			applied[i] = true
		case OpDelete:
			rb.dels = append(rb.dels, pendingDelete{op: i, tuple: op.Tuple})
		default:
			err = fmt.Errorf("access: unknown maintenance op kind %d", op.Kind)
			break stage
		}
		rb.ops = append(rb.ops, i)
	}

	dirty := make(map[*Ladder][]*groupBatch)
	for _, rb := range rels {
		rb.resolveDeletes(applied)
		for _, l := range s.LaddersFor(rb.name) {
			dirty[l] = l.applyBatch(ops, rb)
		}
	}
	s.flushDirty(ops, dirty)
	return applied, err
}

// resolveDeletes removes from the relation the tuple each queued delete
// claims, marks those deletes applied, and leaves in each the tuple actually
// removed, not the query tuple: EqualTuple unifies e.g. Int/Float values
// that the indices (keyed by canonical encoding) keep distinct. A tuple is
// hashed only when its first value could equal some delete's (firstImages):
// most of a large relation is passed over on one value each.
func (rb *relBatch) resolveDeletes(applied []bool) {
	r := rb.r
	var first firstImages
	for _, del := range rb.dels {
		first.add(del.tuple)
	}
	claimFirstMatches(len(r.Tuples), rb.inserted, rb.dels,
		func(j int) bool { return first.maybe(r.Tuples[j]) },
		func(j int) (uint64, bool) { return tupleHash(r.Tuples[j]) }, tupleHash,
		func(j int, t relation.Tuple) bool { return r.Tuples[j].EqualTuple(t) })
	for d := range rb.dels {
		if del := &rb.dels[d]; del.hit >= 0 {
			applied[del.op] = true
			del.tuple = r.Tuples[del.hit]
		}
	}
	r.Tuples = dropClaimed(r.Tuples, rb.dels)
}

// applyBatch carries one relation's share of a batch to the ladder's groups
// and returns the groups it changed, in first-touch order: an insert lands
// in the group of its X-value (created on first use), a delete that removed
// a tuple queues that tuple on the tuple's group, and each group then
// resolves its queue against its items and the batch's inserts in one
// pass. Matching is by canonical encoding (KeyEqual) of the Y-projection —
// the equality the group's index dedups and fetches by — so exactly the
// removed tuple's projection leaves the group, as a from-scratch rebuild
// would have it. The items themselves are written by placeItems.
func (l *Ladder) applyBatch(ops []Op, rb *relBatch) []*groupBatch {
	var groups []*groupBatch
	byGroup := make(map[int]*groupBatch)
	key := make(relation.Tuple, len(l.xIdx))
	// batchOf returns the batch of t's group. A group with no slot is given
	// one when create is set and reported as nil otherwise; a dead slot
	// (a group an earlier batch emptied) is a group with no items, which
	// its inserts revive.
	batchOf := func(t relation.Tuple, create bool) *groupBatch {
		for c, j := range l.xIdx {
			key[c] = t[j]
		}
		s, ok := l.dir.keys.Find(key)
		if !ok {
			if !create {
				return nil
			}
			s = l.dir.slot(key)
		} else if create && !l.dir.live(s) && byGroup[s] == nil {
			// A revived group is spelled by the insert that revives it,
			// as a new one would be.
			l.dir.keys.Respell(s, key)
		}
		gb := byGroup[s]
		if gb == nil {
			old := l.dir.items(s)
			gb = &groupBatch{slot: s, old: old, inserted: inserted{base: old.rows}}
			byGroup[s] = gb
			groups = append(groups, gb)
		}
		return gb
	}
	dels := rb.dels
	for _, i := range rb.ops {
		if ops[i].Kind == OpInsert {
			gb := batchOf(ops[i].Tuple, true)
			gb.births = append(gb.births, i)
			continue
		}
		del := dels[0] // rb.dels holds the batch's deletes in the order rb.ops meets them
		dels = dels[1:]
		if del.hit < 0 {
			continue
		}
		if gb := batchOf(del.tuple, false); gb != nil {
			gb.dels = append(gb.dels, pendingDelete{op: i, tuple: del.tuple})
		}
	}
	y := l.items.y
	var changed []*groupBatch
	var itemHashes []uint64
	var hashable []bool
	for _, gb := range groups {
		// Position j of the group is item j before the batch, then insert
		// j−base; c indexes Y.
		val := func(j, c int) relation.Value {
			if j < gb.base {
				return y.Value(gb.old.first+j, c)
			}
			return ops[gb.births[j-gb.base]].Tuple[l.yIdx[c]]
		}
		if len(gb.dels) > 0 {
			// The items a delete may claim are hashed column by column
			// from the item block's payloads, not value by value.
			if cap(itemHashes) < gb.base {
				itemHashes, hashable = make([]uint64, gb.base), make([]bool, gb.base)
			}
			itemHashes, hashable = itemHashes[:gb.base], hashable[:gb.base]
			rowsEqualHash(y, gb.old.first, itemHashes, hashable)
		}
		claimFirstMatches(gb.base+len(gb.births), gb.inserted, gb.dels, nil,
			func(j int) (uint64, bool) {
				if j < gb.base {
					return itemHashes[j], hashable[j]
				}
				return equalHash(len(l.yIdx), func(c int) relation.Value { return val(j, c) })
			},
			func(t relation.Tuple) (uint64, bool) {
				return equalHash(len(l.yIdx), func(c int) relation.Value { return t[l.yIdx[c]] })
			},
			func(j int, t relation.Tuple) bool {
				for c, k := range l.yIdx {
					if !val(j, c).KeyEqual(t[k]) {
						return false
					}
				}
				return true
			})
		for _, del := range gb.dels {
			if del.hit >= 0 {
				gb.drop = append(gb.drop, del.hit)
			}
		}
		if len(gb.births) > 0 || len(gb.drop) > 0 {
			slices.Sort(gb.drop)
			changed = append(changed, gb)
		}
	}
	return changed
}

// claimFirstMatches resolves a batch's deletes against the n entries of a
// relation or group to exactly what applying them one at a time yields:
// each delete, in batch order, claims the first entry that equals it, was
// there before it (see inserted) and no earlier delete has claimed. What is
// amortised is the search: one pass over the entries files, under each
// delete's equalHash (hashDel of its tuple; hashAt(j) of entry j), the
// positions that delete could equal, and each delete then tries only those.
// equal(j, t) decides whether entry j equals tuple t; it need not be
// transitive. maybe, when not nil, is false for an entry that equals no
// delete, which the pass then neither hashes nor files.
func claimFirstMatches(n int, ins inserted, dels []pendingDelete, maybe func(j int) bool,
	hashAt func(j int) (uint64, bool), hashDel func(relation.Tuple) (uint64, bool),
	equal func(j int, t relation.Tuple) bool) {
	if len(dels) == 0 {
		return // an insert-only batch must not pay for a pass over the entries
	}
	cands := make(map[uint64][]int, len(dels)) // ascending positions per delete hash
	for d := range dels {
		dels[d].hit = -1
		if h, ok := hashDel(dels[d].tuple); ok {
			cands[h] = nil
		}
	}
	for j := 0; j < n; j++ {
		if maybe != nil && !maybe(j) {
			continue
		}
		if h, ok := hashAt(j); !ok {
			for h := range cands {
				cands[h] = append(cands[h], j)
			}
		} else if ps, wanted := cands[h]; wanted {
			cands[h] = append(ps, j)
		}
	}
	claimed := make(map[int]bool, len(dels))
	for d := range dels {
		del := &dels[d]
		try := func(j int) bool {
			if claimed[j] || ins.born(j) >= del.op || !equal(j, del.tuple) {
				return false
			}
			del.hit, claimed[j] = j, true
			return true
		}
		if h, ok := hashDel(del.tuple); ok {
			for _, j := range cands[h] {
				if try(j) {
					break
				}
			}
		} else {
			for j := 0; j < n && !try(j); j++ {
			}
		}
	}
}

// firstImages is resolveDeletes' prefilter: the images (valueImage) of the
// deletes' first values. A tuple equal to a delete has a first value equal
// to the delete's, so an image among these — or none, for NaN, which
// equals every number. A delete whose first value is NaN, or that has
// none, lets every tuple through.
type firstImages struct {
	all  bool
	bits [64]uint64 // bit imageBit(x) set for each image x: a one-word test before the list
	xs   []uint64
}

// imageBit is the bit of firstImages.bits an image sets: its top 12 bits
// after a multiplicative mix.
func imageBit(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 >> 52 }

// add records the first value of a delete's tuple.
func (f *firstImages) add(t relation.Tuple) {
	if len(t) == 0 {
		f.all = true
		return
	}
	x, ok := valueImage(t[0])
	if !ok {
		f.all = true
		return
	}
	b := imageBit(x)
	f.bits[b>>6] |= 1 << (b & 63)
	f.xs = append(f.xs, x)
}

// maybe reports whether t could equal a recorded delete on its first value.
func (f *firstImages) maybe(t relation.Tuple) bool {
	if f.all || len(t) == 0 {
		return true
	}
	x, ok := valueImage(t[0])
	if !ok {
		return true
	}
	b := imageBit(x)
	return f.bits[b>>6]&(1<<(b&63)) != 0 && slices.Contains(f.xs, x)
}

// dropClaimed removes the claimed positions from xs, preserving order.
func dropClaimed[T any](xs []T, dels []pendingDelete) []T {
	var drop []int
	for _, del := range dels {
		if del.hit >= 0 {
			drop = append(drop, del.hit)
		}
	}
	if len(drop) == 0 {
		return xs
	}
	slices.Sort(drop)
	w := drop[0]
	for i, p := range drop {
		end := len(xs)
		if i+1 < len(drop) {
			end = drop[i+1]
		}
		w += copy(xs[w:], xs[p+1:end])
	}
	clear(xs[w:])
	return xs[:w]
}

// tupleHash is equalHash of a tuple's values.
func tupleHash(t relation.Tuple) (uint64, bool) {
	return equalHash(len(t), func(c int) relation.Value { return t[c] })
}

// equalHash hashes the n values at(0..n) so that value lists equal under
// Value.Equal component-wise — and so under the narrower KeyEqual — hash
// alike: numbers by their float64 image, which is what Value.Compare falls
// back to across kinds (ints that differ but share an image merely
// collide), strings by content. A list holding NaN, which Compare finds
// equal to every number, has no such hash and reports false: it is a
// candidate for everything. rowsEqualHash computes the same hash over the
// rows of a block.
func equalHash(n int, at func(c int) relation.Value) (uint64, bool) {
	h := uint64(equalHashSeed)
	for c := 0; c < n; c++ {
		x, ok := valueImage(at(c))
		if !ok {
			return 0, false
		}
		h = mixImage(h, x)
	}
	return h, true
}

// equalHashSeed is equalHash's hash of the empty list.
const equalHashSeed = 14695981039346656037

// mixImage folds one value's image into an equalHash.
func mixImage(h, x uint64) uint64 {
	h = (h ^ x) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// valueImage is the image equalHash folds for one value: stringImage of a
// string, floatImage of a number, 0 for null.
func valueImage(v relation.Value) (uint64, bool) {
	if s, ok := v.AsString(); ok {
		return stringImage(s), true
	}
	if f, ok := v.AsFloat(); ok {
		return floatImage(f)
	}
	return 0, true
}

// floatImage is the image of a number — an int by its float64 image — with
// −0 made +0 (they are equal); NaN has none and reports false.
func floatImage(f float64) (uint64, bool) {
	if f != f {
		return 0, false
	}
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f), true
}

// stringImage is the image of a string: an FNV-1a fold of its bytes.
func stringImage(s string) uint64 {
	var x uint64
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * 1099511628211
	}
	return x
}

// rowsEqualHash sets hs[j] and ok[j] to equalHash of row first+j of b (its
// columns in order) for every j < len(hs), reading the typed payload of
// each column without nulls and Value only for a mixed or nullable one.
// hs[j] is meaningless where ok[j] is false.
func rowsEqualHash(b *relation.Block, first int, hs []uint64, ok []bool) {
	for j := range hs {
		hs[j], ok[j] = equalHashSeed, true
	}
	end := first + len(hs)
	for c := 0; c < b.Width(); c++ {
		col := b.Col(c)
		if ints, typed := col.Ints(); typed {
			for j, i := range ints[first:end] {
				x, _ := floatImage(float64(i))
				hs[j] = mixImage(hs[j], x)
			}
		} else if floats, typed := col.Floats(); typed {
			for j, f := range floats[first:end] {
				x, fine := floatImage(f)
				hs[j], ok[j] = mixImage(hs[j], x), ok[j] && fine
			}
		} else if strs, typed := col.Strings(); typed {
			for j, s := range strs[first:end] {
				hs[j] = mixImage(hs[j], stringImage(s))
			}
		} else {
			for j := range hs {
				x, fine := valueImage(col.Value(first + j))
				hs[j], ok[j] = mixImage(hs[j], x), ok[j] && fine
			}
		}
	}
}

// placeItems writes the new item range of each of l's changed groups, in
// turn: the group's items no delete claimed, then the batch's inserts no
// delete claimed, in op order — the list applying the operations one at a
// time would leave. The old ranges are counted dead, and the item store is
// compacted first when it is crowded (rowStore).
func (l *Ladder) placeItems(ops []Op, gbs []*groupBatch) {
	st, d := &l.items, &l.dir
	n := 0
	for _, gb := range gbs {
		n += gb.base + len(gb.births) - len(gb.drop)
		st.dead += gb.old.rows
		d.setItems(gb.slot, rowRange{}) // no live rows until placed below
	}
	src := st.y
	if crowded(st.live(), st.dead, n) {
		// The groups' level offsets are relative to their items, so only
		// the groups' first item rows move.
		src = st.compact(n, func(move func(lo, hi int) int) {
			for s := range d.recs {
				if r := d.items(s); r.rows > 0 {
					d.recs[s].itemFirst = int32(move(r.first, r.end()))
				}
			}
		})
	} else {
		st.reserve(n)
	}
	y := st.y
	for _, gb := range gbs {
		first := y.Rows()
		from := 0 // the next position not yet copied or dropped
		for _, p := range append(gb.drop, gb.base+len(gb.births)) {
			// Positions [from, p) survive: old items straight from the
			// columns (src may be y itself: rows are only appended), then
			// inserts.
			y.AppendBlockRange(src, gb.old.first+from, gb.old.first+min(p, gb.base))
			for j := max(from, gb.base); j < p; j++ {
				t := ops[gb.births[j-gb.base]].Tuple
				for c, k := range l.yIdx {
					y.Col(c).Append(t[k])
				}
				y.AddRows(1)
			}
			from = p + 1
		}
		d.setItems(gb.slot, rowRange{first: first, rows: y.Rows() - first})
	}
}

// flushDirty finishes a batch in three phases. First, each changed group
// gets its new item range (placeItems) and its old levels are counted dead;
// a group the batch emptied is left a dead slot. Then the trees of the
// remaining changed groups — of all ladders, on one worker pool, see
// buildGroups — are built over those read-only ranges, in the build
// memory the schema keeps between batches. Last, each group's
// new levels are placed in its ladder's arena and directory
// (placeRebuilt), each touched ladder's metadata is refreshed, and its
// directory drops its dead slots when they outnumber the live ones.
func (s *Schema) flushDirty(ops []Op, dirty map[*Ladder][]*groupBatch) {
	var jobs []groupBuild
	for _, l := range s.Ladders {
		if len(dirty[l]) == 0 {
			continue
		}
		l.placeItems(ops, dirty[l])
		for _, gb := range dirty[l] {
			l.dir.unplace(gb.slot, &l.arena)
			if l.dir.recs[gb.slot].itemRows > 0 {
				jobs = append(jobs, groupBuild{l: l, slot: gb.slot})
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(s.builds) < workers {
		s.builds = append(s.builds, make([]buildOut, workers-len(s.builds))...)
	}
	buildGroups(jobs, s.builds[:workers])
	for _, l := range s.Ladders {
		if len(dirty[l]) > 0 {
			l.placeRebuilt(jobs)
			l.recomputeMeta()
			if d := &l.dir; crowded(d.slots()-d.dead, d.dead, 0) {
				d.compact()
			}
		}
	}
}
