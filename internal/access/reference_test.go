package access

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/relation"
)

// referenceLevels is the level-view construction the ladder once stored per
// group, kept as the test oracle: a K-D tree over the group's items, rows
// [first, first+n) of the item columns, whose AllLevels representatives are
// each level's rows, in order, with the number of base tuples each
// represents.
func referenceLevels(yAttrs []relation.Attribute, items *relation.Block, first, n int) (rows [][]relation.Tuple, counts [][]int) {
	for _, reps := range kdtree.Build(yAttrs, items, first, first+n).AllLevels() {
		r := make([]relation.Tuple, len(reps))
		c := make([]int, len(reps))
		for i, rep := range reps {
			r[i], c[i] = items.Tuple(rep.Row), rep.Count
		}
		rows = append(rows, r)
		counts = append(counts, c)
	}
	return rows, counts
}

// sample is one fetched row as the tests compare it.
type sample struct {
	Y     relation.Tuple
	Count int
}

// fetchRows materialises FetchBlock's level-k rows for x; nil when the group
// does not exist.
func fetchRows(l *Ladder, x relation.Tuple, k int) []sample {
	blk := l.FetchBlock(x, k)
	if blk == nil {
		return nil
	}
	y := blk.Y()
	out := make([]sample, blk.Rows())
	for i := range out {
		out[i] = sample{Y: y.Tuple(i), Count: int(blk.Counts()[i])}
	}
	return out
}

// identicalValue is representation equality: same kind, same payload, float
// bit patterns included (−0 is not +0, and NaN payloads must survive).
func identicalValue(a, b relation.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == relation.KindFloat {
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		return math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a.KeyEqual(b)
}

// assertMatchesReference checks every group of l at every level — and one
// level past its exact level, which clamps — against referenceLevels over
// the group's current item list: row count, values kind-exact, counts and
// order. FetchBatchBlocks must hand out the same views as FetchBlock, and a
// prefix view the level's first rows. The arena's bookkeeping must hold:
// the groups' levels cover disjoint, adjacent row ranges that together are
// exactly its live rows, select from the group's rows of the current item
// store (not a block a compaction left behind), IndexSize reports them,
// and dead rows never outnumber live ones. The reference reads each
// group's items from the item store, so those are checked against db first
// (assertItemsMatchRelation), and the views' certificate is checked too
// (assertCertificate).
func assertMatchesReference(t *testing.T, label string, l *Ladder, db *relation.Database) {
	t.Helper()
	assertItemsMatchRelation(t, label, l, db)
	assertCertificate(t, label, l)
	var groups []*ladderGroup
	owned := make([]bool, len(l.arena.item))
	covered := 0
	l.groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
		groups = append(groups, g)
		lo, hi := g.span()
		for k, lb := range g.levels {
			if lb.arena != l.arena || (k > 0 && lb.first != g.levels[k-1].first+g.levels[k-1].rows) {
				t.Fatalf("%s: group %v level %d is not placed after level %d in the ladder's arena", label, g.key, k, k-1)
			}
			if lb.items != l.items.y || lb.base != g.items.first {
				t.Fatalf("%s: group %v level %d selects from rows %d on of a stale item block, not the item store's rows %d on",
					label, g.key, k, lb.base, g.items.first)
			}
		}
		for r := lo; r < hi; r++ {
			if owned[r] {
				t.Fatalf("%s: arena row %d belongs to two groups", label, r)
			}
			owned[r] = true
		}
		covered += hi - lo
		return true
	})
	if live := l.arena.live(); covered != live || l.IndexSize() != live || l.arena.dead > live || len(l.arena.item) != len(l.arena.count) {
		t.Fatalf("%s: groups cover %d rows, IndexSize %d, arena %d rows (%d counts) with %d dead",
			label, covered, l.IndexSize(), len(l.arena.item), len(l.arena.count), l.arena.dead)
	}
	xs := make([]relation.Tuple, len(groups))
	for i, g := range groups {
		xs[i] = g.key
	}
	for k := 0; k <= l.MaxK()+1; k++ {
		batch := l.FetchBatchBlocks(xs, k, 4)
		for i, g := range groups {
			if batch[i] != l.FetchBlock(g.key, k) {
				t.Fatalf("%s: group %v level %d: batch view is not FetchBlock's", label, g.key, k)
			}
			want := *batch[i]
			want.rows /= 2
			if half := batch[i].Prefix(want.rows); *half != want {
				t.Fatalf("%s: group %v level %d: prefix view is not the level's first rows", label, g.key, k)
			}
			rows, counts := referenceLevels(l.yAttrs, l.items.y, g.items.first, g.items.rows)
			rk := min(k, len(rows)-1)
			got := fetchRows(l, g.key, k)
			if len(got) != len(rows[rk]) {
				t.Fatalf("%s: group %v level %d: %d rows, reference %d", label, g.key, k, len(got), len(rows[rk]))
			}
			for r, s := range got {
				if s.Count != counts[rk][r] {
					t.Fatalf("%s: group %v level %d row %d: count %d, reference %d", label, g.key, k, r, s.Count, counts[rk][r])
				}
				want := rows[rk][r]
				if len(s.Y) != len(want) {
					t.Fatalf("%s: group %v level %d row %d: arity %d, reference %d", label, g.key, k, r, len(s.Y), len(want))
				}
				for a := range want {
					if !identicalValue(s.Y[a], want[a]) {
						t.Fatalf("%s: group %v level %d row %d: %v (%v), reference %v (%v)",
							label, g.key, k, r, s.Y[a], s.Y[a].Kind(), want[a], want[a].Kind())
					}
				}
			}
		}
	}
}

// assertItemsMatchRelation checks that each group's items, as a multiset,
// are the Y-projections of the tuples of l's relation in db with the
// group's X-value — under canonical equality, the one the ladder groups and
// dedups by — and that every X-value of the relation has a group.
func assertItemsMatchRelation(t *testing.T, label string, l *Ladder, db *relation.Database) {
	t.Helper()
	want := make(map[string]map[string]int)
	for _, tup := range db.MustRelation(l.RelName).Tuples {
		x := tup.Project(l.xIdx).Key()
		if want[x] == nil {
			want[x] = make(map[string]int)
		}
		want[x][tup.Project(l.yIdx).Key()]++
	}
	groups := 0
	l.groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
		groups++
		got := make(map[string]int)
		for r := g.items.first; r < g.items.end(); r++ {
			got[l.items.y.Tuple(r).Key()]++
		}
		if !maps.Equal(got, want[g.key.Key()]) {
			t.Fatalf("%s: group %v items %v, relation projections %v", label, g.key, got, want[g.key.Key()])
		}
		return true
	})
	if groups != len(want) {
		t.Fatalf("%s: %d groups for %d X-values", label, groups, len(want))
	}
}

// assertCertificate checks what each level view certifies, whatever built
// it: for every group and every level k of the ladder, the view fetched for
// the group covers each of the group's items within the ladder's level-k
// resolution (the conformance Verify checks against the relation), holds at
// most 2^k rows, has counts that sum to the group's size, and has rows whose
// values are, kind-exact, those of one of the group's items.
func assertCertificate(t *testing.T, label string, l *Ladder) {
	t.Helper()
	const eps = 1e-9
	within := func(item, rep relation.Tuple, res []float64) bool {
		for a := range l.yAttrs {
			d := l.yAttrs[a].Dist.Between(item[a], rep[a])
			if d > res[a]+eps && !(math.IsInf(d, 1) && math.IsInf(res[a], 1)) {
				return false
			}
		}
		return true
	}
	identical := func(a, b relation.Tuple) bool {
		return slices.EqualFunc(a, b, identicalValue)
	}
	l.groups.Range(func(_ relation.Tuple, g *ladderGroup) bool {
		items := make([]relation.Tuple, g.items.rows)
		for i := range items {
			items[i] = l.items.y.Tuple(g.items.first + i)
		}
		for k := 0; k <= l.MaxK(); k++ {
			rows := fetchRows(l, g.key, k)
			if len(rows) > 1<<k {
				t.Fatalf("%s: group %v level %d holds %d rows, more than 2^%d", label, g.key, k, len(rows), k)
			}
			sum := 0
			for r, s := range rows {
				sum += s.Count
				if !slices.ContainsFunc(items, func(it relation.Tuple) bool { return identical(it, s.Y) }) {
					t.Fatalf("%s: group %v level %d row %d: %v is none of the group's items", label, g.key, k, r, s.Y)
				}
			}
			if sum != g.items.rows {
				t.Fatalf("%s: group %v level %d: counts sum to %d, group size %d", label, g.key, k, sum, g.items.rows)
			}
			res := l.Resolution(k)
			for _, it := range items {
				if !slices.ContainsFunc(rows, func(s sample) bool { return within(it, s.Y, res) }) {
					t.Fatalf("%s: group %v level %d: item %v not covered within %v", label, g.key, k, it, res)
				}
			}
		}
		return true
	})
}

// hostileDB is kvFixture's relation under hostile values: NaN, ±Inf, −0 and
// Int/Float spellings of one key, so ladder columns mix kinds.
func hostileDB(t *testing.T) *relation.Database {
	t.Helper()
	db, _ := kvFixture(t)
	r := db.MustRelation("kv")
	for _, v := range hostileValues() {
		r.MustAppend(relation.Tuple{relation.Int(5), v})
	}
	return db
}

func hostileValues() []relation.Value {
	return []relation.Value{
		relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
		relation.Float(math.Copysign(0, -1)), relation.Float(0), relation.Int(0),
		relation.Int(3), relation.Float(3), relation.Float(7.5), relation.Int(1e15),
	}
}

// hostileBatch draws one Apply batch over the kv relation: inserts of
// hostile keys and values and deletes of stored tuples. Delete-heavy batches
// empty groups; the inserts that follow recreate them.
func hostileBatch(rng *rand.Rand, db *relation.Database, deleteShare int) []Op {
	keys := []relation.Value{
		relation.Int(1), relation.Int(2), relation.Int(3), relation.Float(3),
		relation.Int(0), relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()),
	}
	vals := hostileValues()
	stored := append([]relation.Tuple(nil), db.MustRelation("kv").Tuples...)
	var ops []Op
	for n := 1 + rng.Intn(10); n > 0; n-- {
		if len(stored) > 0 && rng.Intn(10) < deleteShare {
			i := rng.Intn(len(stored))
			ops = append(ops, Op{Kind: OpDelete, Rel: "kv", Tuple: stored[i].Clone()})
			stored = append(stored[:i], stored[i+1:]...)
			continue
		}
		ops = append(ops, Op{Kind: OpInsert, Rel: "kv", Tuple: relation.Tuple{
			keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))],
		}})
	}
	return ops
}

// TestLevelArenaMatchesReference pins the level views the ladder serves
// against the kd-tree construction they come from, and checks what they
// certify (assertCertificate): after a build at every worker count, after a snapshot restore, and after each of a run of Apply batches
// that empty and recreate groups under hostile values, repack arenas and
// compact item stores.
func TestLevelArenaMatchesReference(t *testing.T) {
	type spec struct {
		rel  string
		x, y []string
	}
	dbs := []struct {
		name  string
		db    *relation.Database
		specs []spec
	}{
		{"example", exampleDB(t), []spec{
			{"poi", []string{"type", "city"}, []string{"price", "address"}},
			{"poi", nil, []string{"address", "type", "city", "price"}},
			{"friend", []string{"pid"}, []string{"fid"}},
			{"person", []string{"pid"}, []string{"city"}},
		}},
		{"hostile", hostileDB(t), []spec{
			{"kv", []string{"k"}, []string{"v"}},
			{"kv", nil, []string{"k", "v"}},
			{"kv", []string{"v"}, []string{"k", "v"}},
		}},
	}
	for _, d := range dbs {
		for _, sp := range d.specs {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				label := fmt.Sprintf("%s %s(%v→%v) workers=%d", d.name, sp.rel, sp.x, sp.y, workers)
				l, err := buildLadderWorkers(d.db, sp.rel, sp.x, sp.y, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, label, l, d.db)
				restored, err := RestoreLadder(d.db, l.Snapshot())
				if err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
				assertMatchesReference(t, label+" restored", restored, d.db)
			}
		}
	}

	db, s := kvFixture(t)
	if _, err := s.Extend(db, "kv", []string{"v"}, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	byK := s.Find("kv", []string{"k"}, []string{"v"})
	emptied, recreated, repacked, compacted := 0, 0, 0, 0
	for b := 0; b < 50; b++ {
		before := byK.NumGroups()
		dead := make([]int, len(s.Ladders)) // only a repack lowers an arena's dead rows
		items := make([]*relation.Block, len(s.Ladders))
		for i, l := range s.Ladders {
			dead[i], items[i] = l.arena.dead, l.items.y
		}
		if _, err := s.Apply(db, hostileBatch(rng, db, 2+b%3*3)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if after := byK.NumGroups(); after < before {
			emptied++
		} else if after > before {
			recreated++
		}
		for i, l := range s.Ladders {
			if l.arena.dead < dead[i] {
				repacked++
			}
			if l.items.y != items[i] {
				compacted++
			}
			assertMatchesReference(t, fmt.Sprintf("batch %d %s(%v→%v)", b, l.RelName, l.X, l.Y), l, db)
		}
	}
	if emptied == 0 || recreated == 0 || repacked == 0 || compacted == 0 {
		t.Fatalf("batches emptied groups %d times, recreated them %d times, repacked an arena %d times and compacted an item store %d times; want all four",
			emptied, recreated, repacked, compacted)
	}
}
