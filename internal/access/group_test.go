package access

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

// FetchBatchBlocks must gather exactly the views per-X FetchBlock returns,
// in input order — including missing groups (nil) and duplicate Xs.
func TestFetchBatchMatchesFetch(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"address"}, []string{"price", "type"})
	if err != nil {
		t.Fatal(err)
	}
	groups := l.GroupXs()
	for _, n := range []int{0, 1, 3, len(groups)} {
		xs := append([]relation.Tuple(nil), groups[:n]...)
		if n >= 3 {
			xs[n/2] = relation.Tuple{relation.String("no-such-address")}
			xs[n-1] = xs[0]
		}
		for k := 0; k <= l.MaxK(); k++ {
			got := l.FetchBatchBlocks(xs, k, 1)
			if len(got) != len(xs) {
				t.Fatalf("batch %d level %d: %d results", n, k, len(got))
			}
			for i, x := range xs {
				want, ok := l.FetchBlock(x, k)
				if ok != (got[i] != nil) || (ok && !sameView(got[i], &want)) {
					t.Fatalf("batch %d level %d: entry %d (%v) is not FetchBlock's view", n, k, i, x)
				}
			}
			if n >= 3 && got[n/2] != nil {
				t.Fatalf("batch %d: missing group resolved to a view", n)
			}
		}
	}
}

// FetchBlock builds its view from the directory's columns: repeated calls
// must return equal views of the same shared storage, and build them
// without allocating.
func TestFetchReturnsSharedView(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range l.GroupXs() {
		for k := 0; k <= l.MaxK(); k++ {
			a, ok := l.FetchBlock(x, k)
			if !ok || a.Rows() == 0 {
				t.Fatalf("group %v level %d: empty fetch", x, k)
			}
			var b LevelBlock
			if n := testing.AllocsPerRun(10, func() { b, _ = l.FetchBlock(x, k) }); n != 0 {
				t.Fatalf("group %v level %d: fetch allocates %.1f times", x, k, n)
			}
			if a != b {
				t.Fatalf("group %v level %d: two fetches returned different views", x, k)
			}
		}
	}
}

// The fetch path allocates nothing of its own: FetchBlock builds its view
// as a value, and FetchBatchBlocks allocates the result slice and the one
// slice of views it points into, whatever the batch's length.
func TestFetchAllocs(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatal(err)
	}
	xs := append(l.GroupXs(), relation.Tuple{relation.String("zoo"), relation.String("Oslo")})
	if n := testing.AllocsPerRun(50, func() {
		for _, x := range xs {
			l.FetchBlock(x, 1)
		}
	}); n != 0 {
		t.Errorf("FetchBlock allocates %.1f times per batch of %d", n, len(xs))
	}
	for _, batch := range [][]relation.Tuple{xs[:1], xs, append(append(xs, xs...), xs...)} {
		if n := testing.AllocsPerRun(50, func() { l.FetchBatchBlocks(batch, 1, 1) }); n != 2 {
			t.Errorf("FetchBatchBlocks allocates %.1f times for %d Xs, want 2 (the result and its views)", n, len(batch))
		}
	}
}

// Incremental maintenance must touch only the updated group: every other
// group keeps its directory slot, its item range and its level entries —
// the same arena rows — and so serves the same level views.
func TestMaintenanceIsPartitionLocal(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	l := s.Find("poi", []string{"type", "city"}, []string{"price", "address"})

	target := relation.Tuple{relation.String("hotel"), relation.String("NYC")}
	type entry struct {
		slot  int
		items rowRange
		spans []int32 // the group's level entries, copied
		views []LevelBlock
	}
	before := map[string]entry{}
	for _, slot := range liveSlots(l) {
		x := slotKey(l, slot)
		if x.EqualTuple(target) {
			continue
		}
		d := &l.dir
		e := entry{slot: slot, items: d.items(slot)}
		first, n := int(d.recs[slot].lvlFirst), int(d.recs[slot].lvlCount)
		e.spans = append(e.spans, d.spans[2*first:2*(first+n)]...)
		for k := 0; k < n; k++ {
			v, _ := l.FetchBlock(x, k)
			e.views = append(e.views, v)
		}
		before[x.Key()] = e
	}
	if len(before) == 0 {
		t.Fatal("fixture has no other groups")
	}

	tup := relation.Tuple{
		relation.String("addr-local"), relation.String("hotel"),
		relation.String("NYC"), relation.Float(42),
	}
	if err := s.Insert(db, "poi", tup); err != nil {
		t.Fatal(err)
	}
	d := &l.dir
	for _, slot := range liveSlots(l) {
		x := slotKey(l, slot)
		e, ok := before[x.Key()]
		if !ok {
			continue
		}
		delete(before, x.Key())
		first, n := int(d.recs[slot].lvlFirst), int(d.recs[slot].lvlCount)
		if slot != e.slot || d.items(slot) != e.items || !slices.Equal(d.spans[2*first:2*(first+n)], e.spans) {
			t.Fatalf("group %v was rebuilt or moved by an insert into %v", x, target)
		}
		for k, want := range e.views {
			if v, _ := l.FetchBlock(x, k); v != want {
				t.Fatalf("group %v level %d: view moved after an insert into %v", x, k, target)
			}
		}
	}
	if len(before) > 0 {
		t.Fatalf("%d groups vanished after an insert into %v", len(before), target)
	}
}

// After interleaved inserts and deletes, the incrementally maintained
// ladder must be indistinguishable from one rebuilt from scratch — the
// regression guard for the per-group tuple lists replacing the old
// relation rescan.
func TestIncrementalMaintenanceMatchesRebuild(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)

	ops := []struct {
		del bool
		t   relation.Tuple
	}{
		{false, relation.Tuple{relation.String("a1"), relation.String("hotel"), relation.String("NYC"), relation.Float(50)}},
		{false, relation.Tuple{relation.String("a2"), relation.String("zoo"), relation.String("Oslo"), relation.Float(9)}},
		{true, db.MustRelation("poi").Tuples[0].Clone()},
		{false, relation.Tuple{relation.String("a3"), relation.String("zoo"), relation.String("Oslo"), relation.Float(11)}},
		{true, relation.Tuple{relation.String("a2"), relation.String("zoo"), relation.String("Oslo"), relation.Float(9)}},
		{false, relation.Tuple{relation.String("a1"), relation.String("hotel"), relation.String("NYC"), relation.Float(50)}}, // duplicate content
	}
	for oi, op := range ops {
		if op.del {
			if _, err := s.Delete(db, "poi", op.t); err != nil {
				t.Fatalf("op %d: %v", oi, err)
			}
		} else {
			if err := s.Insert(db, "poi", op.t); err != nil {
				t.Fatalf("op %d: %v", oi, err)
			}
		}
		inc := s.Find("poi", []string{"type", "city"}, []string{"price", "address"})
		ref, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
		if err != nil {
			t.Fatalf("op %d rebuild: %v", oi, err)
		}
		if inc.MaxK() != ref.MaxK() || inc.NumGroups() != ref.NumGroups() ||
			inc.MaxGroupDistinct() != ref.MaxGroupDistinct() || inc.IndexSize() != ref.IndexSize() {
			t.Fatalf("op %d: metadata diverged from rebuild (K %d/%d, groups %d/%d, N %d/%d, size %d/%d)",
				oi, inc.MaxK(), ref.MaxK(), inc.NumGroups(), ref.NumGroups(),
				inc.MaxGroupDistinct(), ref.MaxGroupDistinct(), inc.IndexSize(), ref.IndexSize())
		}
		for k := 0; k <= ref.MaxK(); k++ {
			if !reflect.DeepEqual(inc.Resolution(k), ref.Resolution(k)) {
				t.Fatalf("op %d level %d: resolutions diverged", oi, k)
			}
		}
		for _, x := range ref.GroupXs() {
			for k := 0; k <= ref.ExactLevelFor(x); k++ {
				if !sameSampleSet(fetchRows(inc, x, k), fetchRows(ref, x, k)) {
					t.Fatalf("op %d group %v level %d: samples diverged", oi, x, k)
				}
			}
		}
		if err := s.Verify(db); err != nil {
			t.Fatalf("op %d: conformance: %v", oi, err)
		}
	}
}

// sameSampleSet compares fetch results as weighted sets: incremental
// maintenance appends to a group's tuple list, so the K-D build may order
// equal-distance representatives differently from a from-scratch scan of
// the relation — the set of (Y, Count) samples is the contract.
func sameSampleSet(a, b []sample) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, s := range a {
		for i, u := range b {
			if used[i] || s.Count != u.Count || !s.Y.EqualTuple(u.Y) {
				continue
			}
			used[i] = true
			continue outer
		}
		return false
	}
	return true
}

// Building a ladder allocates as its columns and scratch buffers grow,
// never per item and never per group: doubling the rows of a single-group
// (X = ∅) relation, doubling the rows of one whose rows fall into a fixed
// set of groups, and doubling the number of groups over the same rows must
// each leave BuildLadder's allocations short of doubling them — by a wide
// margin. A tuple or an object per item, or a tree, a key or a slice per
// group, would double them.
func TestBuildLadderAllocs(t *testing.T) {
	rel := func(n, groups int) *relation.Database {
		r := relation.NewRelation(relation.MustSchema("r",
			relation.Attr("g", relation.KindInt, relation.Trivial()),
			relation.Attr("a", relation.KindInt, relation.Numeric(100)),
			relation.Attr("b", relation.KindFloat, relation.Numeric(1)),
			relation.Attr("c", relation.KindString, relation.Discrete()),
		))
		cs := []string{"p", "q", "r", "s", "t"}
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(i % groups)), relation.Int(int64(i * 7 % 1000)),
				relation.Float(float64(i%97) / 3), relation.String(cs[i%len(cs)]),
			})
		}
		db := relation.NewDatabase()
		db.MustAdd(r)
		return db
	}
	for _, c := range []struct {
		name     string
		x        []string
		one, two [2]int // rows and groups of the two builds
	}{
		{"X=∅, rows doubled", nil, [2]int{4000, 1}, [2]int{8000, 1}},
		{"16 groups, rows doubled", []string{"g"}, [2]int{4000, 16}, [2]int{8000, 16}},
		{"rows fixed, groups doubled", []string{"g"}, [2]int{8000, 500}, [2]int{8000, 1000}},
	} {
		allocs := func(size [2]int) float64 {
			db := rel(size[0], size[1])
			return testing.AllocsPerRun(3, func() {
				if _, err := BuildLadder(db, "r", c.x, []string{"a", "b", "c"}); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, two := allocs(c.one), allocs(c.two)
		t.Logf("%s: %.0f allocations at %v, %.0f at %v", c.name, one, c.one, two, c.two)
		if two-one > one/2 {
			t.Errorf("%s: BuildLadder allocates %.0f times at %v (rows, groups) and %.0f at %v: it allocates per item or per group",
				c.name, one, c.one, two, c.two)
		}
	}
}
