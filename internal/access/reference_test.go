package access

import (
	"cmp"
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
// [first, first+n) of the item columns, built in fresh memory, whose level
// representatives are each level's rows, in order, with the number of base
// tuples each represents.
func referenceLevels(yAttrs []relation.Attribute, items *relation.Block, first, n int) (rows [][]relation.Tuple, counts [][]int) {
	var s kdtree.Scratch
	s.Build(yAttrs, items, first, first+n)
	all, sizes := s.AppendLevels(nil, nil)
	for _, size := range sizes {
		reps := all[:size]
		all = all[size:]
		r := make([]relation.Tuple, len(reps))
		c := make([]int, len(reps))
		for i, rep := range reps {
			r[i], c[i] = items.Tuple(int(rep.Row)), int(rep.Count)
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
	blk, ok := l.FetchBlock(x, k)
	if !ok {
		return nil
	}
	y := blk.Y()
	out := make([]sample, blk.Rows())
	for i := range out {
		out[i] = sample{Y: y.Tuple(i), Count: int(blk.Counts()[i])}
	}
	return out
}

// liveSlots returns l's live directory slots, in slot order.
func liveSlots(l *Ladder) []int {
	var out []int
	for s := 0; s < l.dir.slots(); s++ {
		if l.dir.live(s) {
			out = append(out, s)
		}
	}
	return out
}

// slotKey materialises the X-key of slot s of l's directory.
func slotKey(l *Ladder, s int) relation.Tuple { return l.dir.keys.Keys().Tuple(s) }

// sameView reports whether two level views, either possibly nil, select the
// same rows of the same storage.
func sameView(a, b *LevelBlock) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
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
// prefix view the level's first rows. The directory's bookkeeping must
// hold: each live slot's levels cover adjacent arena row ranges, the live
// slots' ranges are disjoint and together exactly the arena's live rows,
// IndexSize and NumGroups report them, dead slots hold no items, and dead
// rows, level entries and slots never outnumber live ones. A view selects
// from the group's rows of the current item store (not a block a
// compaction left behind). The reference reads each group's items from the
// item store, so those are checked against db first
// (assertItemsMatchRelation), and the views' certificate is checked too
// (assertCertificate).
func assertMatchesReference(t *testing.T, label string, l *Ladder, db *relation.Database) {
	t.Helper()
	assertItemsMatchRelation(t, label, l, db)
	assertCertificate(t, label, l)
	d := &l.dir
	slots := liveSlots(l)
	owned := make([]bool, len(l.arena.item))
	covered, levels := 0, 0
	for s := 0; s < d.slots(); s++ {
		if !d.live(s) {
			if d.recs[s].itemRows != 0 {
				t.Fatalf("%s: dead slot %d (%v) holds %d items", label, s, slotKey(l, s), d.recs[s].itemRows)
			}
			continue
		}
		for k := 1; k <= d.exactLevel(s); k++ {
			pf, pr := d.level(s, k-1)
			if f, _ := d.level(s, k); f != pf+pr {
				t.Fatalf("%s: group %v level %d is not placed after level %d in the ladder's arena", label, slotKey(l, s), k, k-1)
			}
		}
		lo, hi := d.span(s)
		for r := lo; r < hi; r++ {
			if owned[r] {
				t.Fatalf("%s: arena row %d belongs to two groups", label, r)
			}
			owned[r] = true
		}
		covered += hi - lo
		levels += int(d.recs[s].lvlCount)
		x := slotKey(l, s)
		for k := 0; k <= d.exactLevel(s); k++ {
			v, ok := l.FetchBlock(x, k)
			if first, rows := d.level(s, k); !ok || v.st != &l.levelStore || v.base != d.recs[s].itemFirst ||
				int(v.first) != first || int(v.rows) != rows {
				t.Fatalf("%s: group %v level %d: view %+v, not the group's item rows from %d and level rows [%d, +%d)",
					label, x, k, v, d.recs[s].itemFirst, first, rows)
			}
		}
	}
	if live := l.arena.live(); covered != live || l.IndexSize() != live || l.arena.dead > live || len(l.arena.item) != len(l.arena.count) {
		t.Fatalf("%s: groups cover %d rows, IndexSize %d, arena %d rows (%d counts) with %d dead",
			label, covered, l.IndexSize(), len(l.arena.item), len(l.arena.count), l.arena.dead)
	}
	if levels != d.liveLevels() || d.deadLevels > levels || len(d.res) != len(d.spans)/2*len(l.yAttrs) {
		t.Fatalf("%s: groups hold %d level entries, directory %d with %d dead (%d resolutions)",
			label, levels, len(d.spans)/2, d.deadLevels, len(d.res))
	}
	if l.NumGroups() != len(slots) || d.dead != d.slots()-len(slots) || (d.dead > 0 && d.dead >= len(slots)) {
		t.Fatalf("%s: NumGroups %d, %d live slots of %d, %d counted dead", label, l.NumGroups(), len(slots), d.slots(), d.dead)
	}
	xs := make([]relation.Tuple, len(slots))
	for i, s := range slots {
		xs[i] = slotKey(l, s)
	}
	for k := 0; k <= l.MaxK()+1; k++ {
		batch := l.FetchBatchBlocks(xs, k, 4)
		for i, s := range slots {
			x := xs[i]
			if v, _ := l.FetchBlock(x, k); !sameView(batch[i], &v) {
				t.Fatalf("%s: group %v level %d: batch view is not FetchBlock's", label, x, k)
			}
			want := *batch[i]
			want.rows /= 2
			if half := batch[i].Prefix(int(want.rows)); *half != want {
				t.Fatalf("%s: group %v level %d: prefix view is not the level's first rows", label, x, k)
			}
			items := d.items(s)
			rows, counts := referenceLevels(l.yAttrs, l.items.y, items.first, items.rows)
			rk := min(k, len(rows)-1)
			got := fetchRows(l, x, k)
			if len(got) != len(rows[rk]) {
				t.Fatalf("%s: group %v level %d: %d rows, reference %d", label, x, k, len(got), len(rows[rk]))
			}
			for r, smp := range got {
				if smp.Count != counts[rk][r] {
					t.Fatalf("%s: group %v level %d row %d: count %d, reference %d", label, x, k, r, smp.Count, counts[rk][r])
				}
				want := rows[rk][r]
				if len(smp.Y) != len(want) {
					t.Fatalf("%s: group %v level %d row %d: arity %d, reference %d", label, x, k, r, len(smp.Y), len(want))
				}
				for a := range want {
					if !identicalValue(smp.Y[a], want[a]) {
						t.Fatalf("%s: group %v level %d row %d: %v (%v), reference %v (%v)",
							label, x, k, r, smp.Y[a], smp.Y[a].Kind(), want[a], want[a].Kind())
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
	slots := liveSlots(l)
	for _, s := range slots {
		x, items := slotKey(l, s), l.dir.items(s)
		got := make(map[string]int)
		for r := items.first; r < items.end(); r++ {
			got[l.items.y.Tuple(r).Key()]++
		}
		if !maps.Equal(got, want[x.Key()]) {
			t.Fatalf("%s: group %v items %v, relation projections %v", label, x, got, want[x.Key()])
		}
	}
	if groups := len(slots); groups != len(want) {
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
	for _, s := range liveSlots(l) {
		x, r := slotKey(l, s), l.dir.items(s)
		// Tuples are looked up by hash (Tuple.Hash) and then compared as
		// the scans below compare them: the lookups only find a witness
		// sooner, and the scans decide when they find none.
		items := make([]relation.Tuple, r.rows)
		itemsByHash := map[uint64][]relation.Tuple{}
		for i := range items {
			items[i] = l.items.y.Tuple(r.first + i)
			itemsByHash[items[i].Hash()] = append(itemsByHash[items[i].Hash()], items[i])
		}
		for k := 0; k <= l.MaxK(); k++ {
			rows := fetchRows(l, x, k)
			if len(rows) > 1<<k {
				t.Fatalf("%s: group %v level %d holds %d rows, more than 2^%d", label, x, k, len(rows), k)
			}
			sum := 0
			rowsByHash := map[uint64][]sample{}
			for r, s := range rows {
				sum += s.Count
				rowsByHash[s.Y.Hash()] = append(rowsByHash[s.Y.Hash()], s)
				isItem := func(it relation.Tuple) bool { return identical(it, s.Y) }
				if !slices.ContainsFunc(itemsByHash[s.Y.Hash()], isItem) && !slices.ContainsFunc(items, isItem) {
					t.Fatalf("%s: group %v level %d row %d: %v is none of the group's items", label, x, k, r, s.Y)
				}
			}
			if sum != r.rows {
				t.Fatalf("%s: group %v level %d: counts sum to %d, group size %d", label, x, k, sum, r.rows)
			}
			res := l.Resolution(k)
			near := nearRows(l.yAttrs, rows, res)
			for _, it := range items {
				covers := func(s sample) bool { return within(it, s.Y, res) }
				if !slices.ContainsFunc(rowsByHash[it.Hash()], covers) && !near(it, covers) && !slices.ContainsFunc(rows, covers) {
					t.Fatalf("%s: group %v level %d: item %v not covered within %v", label, x, k, it, res)
				}
			}
		}
	}
}

// nearRows returns a witness search for assertCertificate that tries only
// the rows near an item on one numeric attribute: the one whose resolution
// is the smallest share of the rows' range, among those on which every row
// is a finite number. Those rows are sorted by their value there, and the
// search scans the ones within the resolution (with slack) of the item's
// value. It only finds a witness sooner: a false answer decides nothing.
func nearRows(attrs []relation.Attribute, rows []sample, res []float64) func(relation.Tuple, func(sample) bool) bool {
	best, share, scale := -1, math.Inf(1), 1.0
	for a, attr := range attrs {
		if attr.Dist.Kind != relation.DistNumeric || math.IsInf(res[a], 0) {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range rows {
			f, ok := s.Y[a].AsFloat()
			if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
				lo, hi = 0, 0
				break
			}
			lo, hi = min(lo, f), max(hi, f)
		}
		sc := attr.Dist.Scale
		if sc <= 0 {
			sc = 1
		}
		if hi > lo && res[a]*sc/(hi-lo) < share {
			best, share, scale = a, res[a]*sc/(hi-lo), sc
		}
	}
	if best < 0 {
		return func(relation.Tuple, func(sample) bool) bool { return false }
	}
	sorted := slices.Clone(rows)
	value := func(s sample) float64 { f, _ := s.Y[best].AsFloat(); return f }
	slices.SortFunc(sorted, func(x, y sample) int { return cmp.Compare(value(x), value(y)) })
	half := (res[best] + 1e-9) * scale * (1 + 1e-6)
	return func(it relation.Tuple, covers func(sample) bool) bool {
		x, ok := it[best].AsFloat()
		if !ok || math.IsNaN(x) {
			return false
		}
		i, _ := slices.BinarySearchFunc(sorted, x-half, func(s sample, v float64) int { return cmp.Compare(value(s), v) })
		for ; i < len(sorted) && value(sorted[i]) <= x+half; i++ {
			if covers(sorted[i]) {
				return true
			}
		}
		return false
	}
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
