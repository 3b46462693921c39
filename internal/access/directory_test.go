package access

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// refLadder is the reference the group directory is checked against: the
// ladder's groups in a map keyed by Tuple.Key string, each with its X-value
// as the ladder should spell it and its items in the order the ladder keeps
// them. refSchema maintains it op by op over its own copy of the relation,
// with the semantics Apply promises for a sequence of single operations.
type refLadder struct {
	l      *Ladder
	groups map[string]*refGroup
}

type refGroup struct {
	x     relation.Tuple
	items []relation.Tuple
}

// refSchema is the reference state of one relation and its ladders.
type refSchema struct {
	rel     []relation.Tuple
	ladders []*refLadder
}

func newRefSchema(db *relation.Database, rel string, ls []*Ladder) *refSchema {
	rs := &refSchema{}
	for _, l := range ls {
		rs.ladders = append(rs.ladders, &refLadder{l: l, groups: map[string]*refGroup{}})
	}
	for _, t := range db.MustRelation(rel).Tuples {
		rs.insert(t)
	}
	return rs
}

// insert appends t to the relation and its projections to their groups,
// creating a group spelled as t's X-projection when its key is new.
func (rs *refSchema) insert(t relation.Tuple) {
	rs.rel = append(rs.rel, t.Clone())
	for _, rl := range rs.ladders {
		x := t.Project(rl.l.xIdx)
		g := rl.groups[x.Key()]
		if g == nil {
			g = &refGroup{x: x}
			rl.groups[x.Key()] = g
		}
		g.items = append(g.items, t.Project(rl.l.yIdx))
	}
}

// delete removes the first tuple of the relation equal to t, and from each
// ladder the first item of its group canonically equal to that tuple's
// projection; a group left without items is dropped.
func (rs *refSchema) delete(t relation.Tuple) {
	i := slices.IndexFunc(rs.rel, func(u relation.Tuple) bool { return u.EqualTuple(t) })
	if i < 0 {
		return
	}
	gone := rs.rel[i]
	rs.rel = slices.Delete(rs.rel, i, i+1)
	for _, rl := range rs.ladders {
		key := gone.Project(rl.l.xIdx).Key()
		g := rl.groups[key]
		y := gone.Project(rl.l.yIdx)
		j := slices.IndexFunc(g.items, func(it relation.Tuple) bool { return it.KeyEqual(y) })
		g.items = slices.Delete(g.items, j, j+1)
		if len(g.items) == 0 {
			delete(rl.groups, key)
		}
	}
}

func (rs *refSchema) apply(ops []Op) {
	for _, op := range ops {
		if op.Kind == OpInsert {
			rs.insert(op.Tuple)
		} else {
			rs.delete(op.Tuple)
		}
	}
}

// respelled returns x with every value that has another canonically equal
// spelling (Int n ↔ Float n below the 1e15 cutoff, −0 ↔ Int 0) swapped for
// it: a lookup by it must find x's group.
func respelled(x relation.Tuple) relation.Tuple {
	out := x.Clone()
	for i, v := range x {
		if n, ok := v.AsInt(); ok && v.Kind() == relation.KindInt && math.Abs(float64(n)) < 1e15 {
			out[i] = relation.Float(float64(n))
		} else if f, ok := v.AsFloat(); ok && v.Kind() == relation.KindFloat && f == math.Trunc(f) && math.Abs(f) < 1e15 {
			out[i] = relation.Int(int64(f))
		}
	}
	return out
}

// assertDirectoryMatchesRef checks every observation of the directory
// against the reference: which groups exist (NumGroups, and GroupXs as
// canonical keys, each spelled as the reference spells it), ExactLevelFor
// and FetchBlock at every level (one past the exact level too, which
// clamps) under the stored and a respelled key, against the kd-tree over
// the reference's items, and lookups of keys that have no group.
func assertDirectoryMatchesRef(t *testing.T, label string, rl *refLadder, absent []relation.Tuple) {
	t.Helper()
	l := rl.l
	if l.NumGroups() != len(rl.groups) {
		t.Fatalf("%s: %d groups, reference %d", label, l.NumGroups(), len(rl.groups))
	}
	seen := map[string]bool{}
	for _, x := range l.GroupXs() {
		g := rl.groups[x.Key()]
		if g == nil || seen[x.Key()] {
			t.Fatalf("%s: GroupXs holds %v, which the reference has not or has already met", label, x)
		}
		seen[x.Key()] = true
		if !slices.EqualFunc(x, g.x, identicalValue) {
			t.Fatalf("%s: group spelled %v, reference %v", label, x, g.x)
		}
	}
	for _, g := range rl.groups {
		rows, counts := referenceLevels(l.yAttrs, relation.BlockOfTuples(len(l.yIdx), g.items), 0, len(g.items))
		exact := len(rows) - 1
		for _, x := range []relation.Tuple{g.x, respelled(g.x)} {
			if got := l.ExactLevelFor(x); got != exact {
				t.Fatalf("%s: group %v exact level %d, reference %d", label, x, got, exact)
			}
			for k := 0; k <= exact+1; k++ {
				got := fetchRows(l, x, k)
				rk := min(k, exact)
				if len(got) != len(rows[rk]) {
					t.Fatalf("%s: group %v level %d: %d rows, reference %d", label, x, k, len(got), len(rows[rk]))
				}
				for r, s := range got {
					if s.Count != counts[rk][r] || !slices.EqualFunc(s.Y, rows[rk][r], identicalValue) {
						t.Fatalf("%s: group %v level %d row %d: (%v, %d), reference (%v, %d)",
							label, x, k, r, s.Y, s.Count, rows[rk][r], counts[rk][r])
					}
				}
			}
		}
	}
	for _, x := range absent {
		if rl.groups[x.Key()] != nil {
			continue
		}
		if _, ok := l.FetchBlock(x, 0); ok || l.ExactLevelFor(x) != 0 {
			t.Fatalf("%s: key %v has no group, but the ladder serves one", label, x)
		}
		if out := l.FetchBatchBlocks([]relation.Tuple{x}, 0, 1); out[0] != nil {
			t.Fatalf("%s: key %v has no group, but a batch fetch resolves it", label, x)
		}
	}
}

// refConstraintIndexSize is ConstraintIndexSize over the reference: the
// rows of every group's exact level.
func refConstraintIndexSize(rs *refSchema) int {
	n := 0
	for _, rl := range rs.ladders {
		for _, g := range rl.groups {
			rows, _ := referenceLevels(rl.l.yAttrs, relation.BlockOfTuples(len(rl.l.yIdx), g.items), 0, len(g.items))
			n += len(rows[len(rows)-1])
		}
	}
	return n
}

// dirKeys are the hostile key values the directory tests draw from: Int 3
// and Float 3 (one canonical key), −0 and Int 0 (another), NaN, ±Inf,
// null, 1e15 as Int and as Float (two keys: beyond the unification
// cutoff), and strings in a numeric column.
func dirKeys() []relation.Value {
	return []relation.Value{
		relation.Int(3), relation.Float(3), relation.Float(math.Copysign(0, -1)), relation.Int(0),
		relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
		relation.Null(), relation.Int(1e15), relation.Float(1e15), relation.String("3"), relation.Float(2.5),
	}
}

var dirStrings = []string{"a", "b", "", "a\x1fb", "x\x1e"}

// dirFixture is a relation r(k, s, t, v) whose key columns hold dirKeys and
// dirStrings, and a schema over it of ladders keyed by one numeric column,
// two string columns, a mixed pair, a Y-value, and nothing (X = ∅).
func dirFixture(t *testing.T, rng *rand.Rand, n int) (*relation.Database, *Schema, []*Ladder) {
	t.Helper()
	r := relation.NewRelation(relation.MustSchema("r",
		relation.Attr("k", relation.KindInt, relation.Trivial()),
		relation.Attr("s", relation.KindString, relation.Discrete()),
		relation.Attr("t", relation.KindString, relation.Discrete()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
	))
	for i := 0; i < n; i++ {
		r.MustAppend(dirTuple(rng))
	}
	db := relation.NewDatabase()
	db.MustAdd(r)
	s := &Schema{}
	var ls []*Ladder
	for _, spec := range []struct{ x, y []string }{
		{[]string{"k"}, []string{"v"}},
		{[]string{"s", "t"}, []string{"v", "k"}},
		{[]string{"k", "s"}, []string{"v"}},
		{[]string{"v"}, []string{"s"}},
		{nil, []string{"k", "s", "t", "v"}},
	} {
		l, err := s.Extend(db, "r", spec.x, spec.y)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
	}
	return db, s, ls
}

func dirTuple(rng *rand.Rand) relation.Tuple {
	keys := dirKeys()
	return relation.Tuple{
		keys[rng.Intn(len(keys))],
		relation.String(dirStrings[rng.Intn(len(dirStrings))]),
		relation.String(dirStrings[rng.Intn(2)]),
		relation.Float(float64(rng.Intn(6))),
	}
}

// dirBatch draws one Apply batch: inserts of fresh hostile tuples and
// deletes of stored ones, deleteShare in 10 of them deletes. Delete-heavy
// runs empty groups (dead slots) until the directory compacts; the inserts
// of the light runs revive and re-create them.
func dirBatch(rng *rand.Rand, db *relation.Database, deleteShare int) []Op {
	stored := append([]relation.Tuple(nil), db.MustRelation("r").Tuples...)
	var ops []Op
	for n := 1 + rng.Intn(12); n > 0; n-- {
		if len(stored) > 0 && rng.Intn(10) < deleteShare {
			i := rng.Intn(len(stored))
			ops = append(ops, Op{Kind: OpDelete, Rel: "r", Tuple: stored[i].Clone()})
			stored = slices.Delete(stored, i, i+1)
			continue
		}
		ops = append(ops, Op{Kind: OpInsert, Rel: "r", Tuple: dirTuple(rng)})
	}
	return ops
}

// absentKeys returns, per ladder, X-values to look up that may have no
// group: every key shape the fixture can produce, and some it cannot.
func absentKeys(l *Ladder) []relation.Tuple {
	var out []relation.Tuple
	vals := append(dirKeys(), relation.String("a"), relation.Int(99))
	for _, a := range vals {
		for _, b := range vals[len(vals)-4:] {
			x := relation.Tuple{a, b}
			out = append(out, x[:len(l.xIdx)])
		}
	}
	return out
}

// TestGroupDirectoryMatchesReference differential-tests the group directory
// against a map keyed by Tuple.Key string: after a build, after a snapshot
// restore, and after each of a run of Apply batches that empty groups,
// revive and re-create them and cross the directory's compaction
// threshold, every ladder must agree with the reference on which groups
// exist, their spelling, ExactLevelFor, FetchBlock at every level and
// ConstraintIndexSize, and keep its bookkeeping and its certificate
// (assertMatchesReference, assertCertificate).
func TestGroupDirectoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	db, s, ls := dirFixture(t, rng, 60)
	ref := newRefSchema(db, "r", ls)
	check := func(label string) {
		t.Helper()
		for i, rl := range ref.ladders {
			lbl := fmt.Sprintf("%s ladder %d (%v→%v)", label, i, rl.l.X, rl.l.Y)
			assertDirectoryMatchesRef(t, lbl, rl, absentKeys(rl.l))
			assertMatchesReference(t, lbl, rl.l, db) // bookkeeping, and assertCertificate
			restored, err := RestoreLadder(db, rl.l.Snapshot())
			if err != nil {
				t.Fatalf("%s: restore: %v", lbl, err)
			}
			assertDirectoryMatchesRef(t, lbl+" restored", &refLadder{l: restored, groups: rl.groups}, absentKeys(restored))
		}
		if got, want := s.ConstraintIndexSize(), refConstraintIndexSize(ref); got != want {
			t.Fatalf("%s: ConstraintIndexSize %d, reference %d", label, got, want)
		}
	}
	check("build")

	emptied, revived, compacted := 0, 0, 0
	for b := 0; b < 120; b++ {
		// Phases of 20 batches: delete-heavy, then insert-heavy.
		share := 8
		if b/20%2 == 1 {
			share = 2
		}
		before := make([]struct{ groups, slots, dead int }, len(ls))
		for i, l := range ls {
			before[i].groups, before[i].slots, before[i].dead = l.NumGroups(), l.dir.slots(), l.dir.dead
		}
		ops := dirBatch(rng, db, share)
		if _, err := s.Apply(db, ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		ref.apply(ops)
		for i, l := range ls {
			switch {
			case l.dir.slots() < before[i].slots:
				compacted++
			case l.NumGroups() < before[i].groups:
				emptied++
			case l.dir.dead < before[i].dead && l.dir.slots() == before[i].slots:
				revived++
			}
		}
		check(fmt.Sprintf("batch %d", b))
	}
	t.Logf("batches emptied groups %d times, revived dead slots %d times, compacted a directory %d times", emptied, revived, compacted)
	if emptied == 0 || revived == 0 || compacted == 0 {
		t.Fatalf("batches emptied groups %d times, revived dead slots %d times and compacted a directory %d times; want all three",
			emptied, revived, compacted)
	}
}

// FuzzGroupDirectory drives a ladder's directory through random keys and
// insert, delete and lookup sequences, decoded from the input, against a
// map from each X-value's Tuple.Key to its number of tuples: a group must
// exist exactly when its count is positive, its level-0 view must
// represent exactly that many tuples, and lookups of any spelling must
// agree with the map.
func FuzzGroupDirectory(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 128, 128, 128, 128, 255, 0, 1})
	f.Add([]byte{16, 32, 48, 64, 80, 96, 112, 129, 145, 161, 177, 193, 209, 225, 241})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			return
		}
		db := relation.NewDatabase()
		db.MustAdd(relation.NewRelation(relation.MustSchema("r",
			relation.Attr("k", relation.KindInt, relation.Trivial()),
			relation.Attr("s", relation.KindString, relation.Discrete()),
			relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
		)))
		s := &Schema{}
		l, err := s.Extend(db, "r", []string{"k", "s"}, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		keys := dirKeys()
		ref := map[string]int{}
		var batch []Op
		flush := func() {
			if _, err := s.Apply(db, batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
			n := 0
			for _, c := range ref {
				if c > 0 {
					n++
				}
			}
			if l.NumGroups() != n {
				t.Fatalf("%d groups, reference %d", l.NumGroups(), n)
			}
			for _, x := range l.GroupXs() {
				if ref[x.Key()] == 0 {
					t.Fatalf("group %v exists with no tuples", x)
				}
			}
		}
		for i, b := range data {
			x := relation.Tuple{keys[int(b&0x0f)%len(keys)], relation.String(dirStrings[int(b>>4&3)%len(dirStrings)])}
			switch b >> 6 {
			case 0, 1: // insert
				batch = append(batch, Op{Kind: OpInsert, Rel: "r", Tuple: relation.Tuple{x[0], x[1], relation.Float(float64(i % 3))}})
			case 2: // delete a stored tuple of the key, if the relation has one
				flush()
				for _, u := range db.MustRelation("r").Tuples {
					if u[:2].KeyEqual(x) {
						batch = append(batch, Op{Kind: OpDelete, Rel: "r", Tuple: u.Clone()})
						break
					}
				}
			default: // lookup, after applying what is queued
				flush()
				c := ref[x.Key()]
				for _, y := range []relation.Tuple{x, respelled(x)} {
					blk, ok := l.FetchBlock(y, 0)
					if ok != (c > 0) {
						t.Fatalf("lookup %v: found %v, reference count %d", y, ok, c)
					}
					if ok && blk.Counts()[0] != int32(c) {
						t.Fatalf("lookup %v: level 0 represents %d tuples, reference %d", y, blk.Counts()[0], c)
					}
				}
			}
			// The reference follows the relation: apply the op just queued
			// to the count of the X-value of the tuple it inserts or of
			// the stored tuple the delete will remove.
			if n := len(batch); n > 0 && b>>6 != 3 {
				op := batch[n-1]
				u := op.Tuple
				if op.Kind == OpDelete {
					u = db.MustRelation("r").Tuples[slices.IndexFunc(db.MustRelation("r").Tuples,
						func(w relation.Tuple) bool { return w.EqualTuple(op.Tuple) })]
					ref[u[:2].Key()]--
				} else {
					ref[u[:2].Key()]++
				}
			}
		}
		flush()
	})
}
