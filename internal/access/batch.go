package access

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// This file implements batched incremental maintenance: a sequence of
// insert/delete operations is applied to the base relations and to the
// owning groups' tuple lists first, and every dirty group is rebuilt exactly
// once at the end. A storm of updates hitting one hot group therefore costs
// one rebuild instead of one per update, and one pass over the relation and
// over the group instead of one per delete — the amortisation the per-op
// path cannot provide — and the final ladder state is identical to applying
// the operations one at a time (asserted by TestBatchApplyMatchesSequential). The WAL replay of internal/persist runs
// through this path, which is what keeps crash recovery fast.

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

// dirtyGroups tracks the groups of one ladder touched by a batch, in
// first-touch order.
type dirtyGroups struct {
	seen *relation.TupleSet
	keys []relation.Tuple
}

// pendingDelete is a delete of a batch waiting for the one pass that
// resolves it: against its relation's tuples first, then — carrying the
// tuple actually removed — against the tuple list of each ladder group that
// tuple belongs to.
type pendingDelete struct {
	op    int            // position in the batch: only tuples inserted by earlier ops are visible
	tuple relation.Tuple // what to match
	hit   int            // position of the tuple claimed, -1 when there is none
}

// inserted records where a batch's inserts landed in a tuple list: every
// position from base on holds the tuple appended by op births[position−base].
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

// groupBatch is the part of one Apply that concerns one ladder group.
type groupBatch struct {
	g *ladderGroup
	inserted
	dels []pendingDelete
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

	dirty := make(map[*Ladder]*dirtyGroups)
	for _, rb := range rels {
		rb.resolveDeletes(applied)
		for _, l := range s.LaddersFor(rb.name) {
			l.applyBatch(ops, rb, dirty)
		}
	}
	s.flushDirty(dirty)
	return applied, err
}

// resolveDeletes removes from the relation the tuple each queued delete
// claims, marks those deletes applied, and leaves in each the tuple actually
// removed, not the query tuple: EqualTuple unifies e.g. Int/Float values
// that the indices (keyed by canonical encoding) keep distinct.
func (rb *relBatch) resolveDeletes(applied []bool) {
	r := rb.r
	claimFirstMatches(len(r.Tuples), rb.inserted, func(j int) relation.Tuple { return r.Tuples[j] },
		rb.dels, relation.Tuple.EqualTuple)
	for d := range rb.dels {
		if del := &rb.dels[d]; del.hit >= 0 {
			applied[del.op] = true
			del.tuple = r.Tuples[del.hit]
		}
	}
	r.Tuples = dropClaimed(r.Tuples, rb.dels)
}

// applyBatch carries one relation's share of a batch into the ladder's group
// tuple lists, in op order: an insert appends its Y-projection to the group
// of its X-value (created on first use), a delete that removed a tuple
// queues that tuple's Y-projection on the tuple's group, and each group then
// resolves its queue in one pass. Matching is by canonical encoding
// (KeyEqual) — the equality the group's index dedups and fetches by — so
// exactly the removed tuple's projection leaves the list, as a from-scratch
// rebuild would have it.
func (l *Ladder) applyBatch(ops []Op, rb *relBatch, dirty map[*Ladder]*dirtyGroups) {
	touch := func(key relation.Tuple) {
		dg := dirty[l]
		if dg == nil {
			dg = &dirtyGroups{seen: relation.NewTupleSet(0)}
			dirty[l] = dg
		}
		if dg.seen.Add(key) {
			dg.keys = append(dg.keys, key)
		}
	}
	var groups []*groupBatch
	byGroup := make(map[*ladderGroup]*groupBatch)
	batchOf := func(g *ladderGroup) *groupBatch {
		gb := byGroup[g]
		if gb == nil {
			gb = &groupBatch{g: g, inserted: inserted{base: len(g.items)}}
			byGroup[g] = gb
			groups = append(groups, gb)
		}
		return gb
	}
	dels := rb.dels
	for _, i := range rb.ops {
		if ops[i].Kind == OpInsert {
			key, y := ops[i].Tuple.Project(l.xIdx), ops[i].Tuple.Project(l.yIdx)
			g, ok := l.store.group(key)
			if !ok {
				g = &ladderGroup{key: key}
				l.store.put(g)
			}
			gb := batchOf(g)
			g.items = append(g.items, kdtree.Item{Tuple: y, Count: 1})
			gb.births = append(gb.births, i)
			touch(key)
			continue
		}
		del := dels[0] // rb.dels holds the batch's deletes in the order rb.ops meets them
		dels = dels[1:]
		if del.hit < 0 {
			continue
		}
		if g, ok := l.store.group(del.tuple.Project(l.xIdx)); ok {
			gb := batchOf(g)
			gb.dels = append(gb.dels, pendingDelete{op: i, tuple: del.tuple.Project(l.yIdx)})
		}
	}
	for _, gb := range groups {
		g := gb.g
		claimFirstMatches(len(g.items), gb.inserted, func(j int) relation.Tuple { return g.items[j].Tuple },
			gb.dels, keyEqualTuple)
		if kept := dropClaimed(g.items, gb.dels); len(kept) < len(g.items) {
			g.items = kept
			touch(g.key)
		}
	}
}

// claimFirstMatches resolves a batch's deletes against the n tuples at(0..n)
// of a relation or group to exactly what applying them one at a time
// yields: each delete, in batch order, claims the first tuple that equals
// it, was there before it (see inserted) and no earlier delete has claimed.
// What is amortised is the search: one pass over the tuples files, under
// each delete's equalHash, the positions that delete could equal, and each
// delete then tries only those. equal decides; it need not be transitive.
func claimFirstMatches(n int, ins inserted, at func(int) relation.Tuple, dels []pendingDelete,
	equal func(a, b relation.Tuple) bool) {
	if len(dels) == 0 {
		return // an insert-only batch must not pay for a pass over the tuples
	}
	cands := make(map[uint64][]int, len(dels)) // ascending positions per delete hash
	for d := range dels {
		dels[d].hit = -1
		if h, ok := equalHash(dels[d].tuple); ok {
			cands[h] = nil
		}
	}
	for j := 0; j < n; j++ {
		if h, ok := equalHash(at(j)); !ok {
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
			if claimed[j] || ins.born(j) >= del.op || !equal(at(j), del.tuple) {
				return false
			}
			del.hit, claimed[j] = j, true
			return true
		}
		if h, ok := equalHash(del.tuple); ok {
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

// equalHash hashes a tuple so that tuples equal under EqualTuple — and so
// under the narrower keyEqualTuple — hash alike: numbers by their float64
// image, which is what Value.Compare falls back to across kinds (ints that
// differ but share an image merely collide), strings by content. A tuple
// holding NaN, which Compare finds equal to every number, has no such hash
// and reports false: it is a candidate for everything.
func equalHash(t relation.Tuple) (uint64, bool) {
	h := uint64(14695981039346656037)
	for _, v := range t {
		var x uint64
		if s, ok := v.AsString(); ok {
			for i := 0; i < len(s); i++ {
				x = (x ^ uint64(s[i])) * 1099511628211
			}
		} else if f, ok := v.AsFloat(); ok {
			if f != f {
				return 0, false
			}
			if f == 0 {
				f = 0 // −0 equals +0
			}
			x = math.Float64bits(f)
		}
		h = (h ^ x) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h, true
}

// flushDirty rebuilds every dirty group once — the dirty groups of all
// ladders on one worker pool, see buildGroups — counting its old level rows
// dead and placing its new ones in its ladder's arena (placeRebuilt); it
// drops groups emptied by the batch and refreshes each touched ladder's
// metadata.
func (s *Schema) flushDirty(dirty map[*Ladder]*dirtyGroups) {
	var jobs []groupBuild
	for _, l := range s.Ladders {
		dg := dirty[l]
		if dg == nil {
			continue
		}
		for _, key := range dg.keys {
			g, ok := l.store.group(key)
			if !ok {
				continue
			}
			lo, hi := g.span()
			l.arena.dead += hi - lo
			if len(g.items) == 0 {
				l.store.remove(key)
				continue
			}
			jobs = append(jobs, groupBuild{l: l, g: g})
		}
	}
	buildGroups(jobs, runtime.GOMAXPROCS(0))
	for _, l := range s.Ladders {
		if dirty[l] != nil {
			l.placeRebuilt(jobs)
			l.recomputeMeta()
		}
	}
}
