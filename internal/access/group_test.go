package access

import (
	"reflect"
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
				if want := l.FetchBlock(x, k); got[i] != want {
					t.Fatalf("batch %d level %d: entry %d (%v) is not FetchBlock's view", n, k, i, x)
				}
			}
			if n >= 3 && got[n/2] != nil {
				t.Fatalf("batch %d: missing group resolved to a view", n)
			}
		}
	}
}

// FetchBlock hands out the stored level view itself — repeated calls must
// return the same pointer, not build a view per fetch.
func TestFetchReturnsSharedView(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range l.GroupXs() {
		for k := 0; k <= l.MaxK(); k++ {
			a := l.FetchBlock(x, k)
			if a == nil || a.Rows() == 0 {
				t.Fatalf("group %v level %d: empty fetch", x, k)
			}
			if b := l.FetchBlock(x, k); a != b {
				t.Fatalf("group %v level %d: fetch built a new view instead of sharing the stored one", x, k)
			}
		}
	}
}

// The fetch path allocates nothing of its own: FetchBlock hands out a stored
// view, and FetchBatchBlocks allocates only the result slice.
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
	if n := testing.AllocsPerRun(50, func() { l.FetchBatchBlocks(xs, 1, 1) }); n != 1 {
		t.Errorf("FetchBatchBlocks allocates %.1f times, want 1 (the result slice)", n)
	}
}

// Incremental maintenance must touch only the updated group: every other
// group keeps the exact same level views, at the same
// arena rows.
func TestMaintenanceIsPartitionLocal(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	l := s.Find("poi", []string{"type", "city"}, []string{"price", "address"})

	target := relation.Tuple{relation.String("hotel"), relation.String("NYC")}
	type view struct {
		first *LevelBlock
		at    LevelBlock
	}
	before := map[*ladderGroup]view{}
	l.groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
		if !g.key.EqualTuple(target) {
			before[g] = view{&g.levels[0], g.levels[0]}
		}
		return true
	})
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
	for g, v := range before {
		if &g.levels[0] != v.first || g.levels[0] != v.at {
			t.Fatalf("group %v was rebuilt or moved by an insert into %v", g.key, target)
		}
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

// Building a ladder allocates per group and per tree, never per item:
// doubling the rows of a single-group (X = ∅) relation, and of one whose
// rows fall into a fixed set of groups, must not double BuildLadder's
// allocations. A tuple or an object per item would double them.
func TestBuildLadderAllocs(t *testing.T) {
	rel := func(n int) *relation.Database {
		r := relation.NewRelation(relation.MustSchema("r",
			relation.Attr("g", relation.KindInt, relation.Trivial()),
			relation.Attr("a", relation.KindInt, relation.Numeric(100)),
			relation.Attr("b", relation.KindFloat, relation.Numeric(1)),
			relation.Attr("c", relation.KindString, relation.Discrete()),
		))
		cs := []string{"p", "q", "r", "s", "t"}
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(i % 16)), relation.Int(int64(i * 7 % 1000)),
				relation.Float(float64(i%97) / 3), relation.String(cs[i%len(cs)]),
			})
		}
		db := relation.NewDatabase()
		db.MustAdd(r)
		return db
	}
	for _, x := range [][]string{nil, {"g"}} {
		allocs := func(n int) float64 {
			db := rel(n)
			return testing.AllocsPerRun(3, func() {
				if _, err := BuildLadder(db, "r", x, []string{"a", "b", "c"}); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, two := allocs(4000), allocs(8000)
		t.Logf("X=%v: %.0f allocations at 4000 rows, %.0f at 8000", x, one, two)
		if two-one > one/2 {
			t.Errorf("X=%v: BuildLadder allocates %.0f times over 4000 rows and %.0f over 8000: it allocates per item", x, one, two)
		}
	}
}
