package relation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Equal tuples must hash equally — including across Int/Float unification,
// mirroring Key's canonical encoding.
func TestHashConsistentWithEqual(t *testing.T) {
	if (Tuple{Int(3)}).Hash() != (Tuple{Float(3)}).Hash() {
		t.Error("Int(3) and Float(3) must hash equally")
	}
	if (Tuple{Float(3.5)}).Hash() == (Tuple{Int(3)}).Hash() {
		t.Error("Float(3.5) should not collide with Int(3) in practice")
	}
	f := func(a int32, s string, useFloat bool) bool {
		t1 := Tuple{Int(int64(a)), String(s)}
		var first Value = Int(int64(a))
		if useFloat {
			first = Float(float64(a))
		}
		t2 := Tuple{first, String(s)}
		return t1.Hash() == t2.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// HashCols hashes a projection in place exactly as Project then Hash do,
// over random mixed-kind tuples (nulls, NaN, ±Inf and unifying floats
// included) and random position lists, repeats and the empty list too.
func TestHashColsMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	vals := testValues()
	for i := 0; i < 2000; i++ {
		tup := randTuple(rng, vals, 1+rng.Intn(5))
		idx := make([]int, rng.Intn(4))
		for k := range idx {
			idx[k] = rng.Intn(len(tup))
		}
		if got, want := tup.HashCols(idx), tup.Project(idx).Hash(); got != want {
			t.Fatalf("%v at %v: HashCols %x, Project.Hash %x", tup, idx, got, want)
		}
	}
}

// Hash must not depend on tuple concatenation boundaries any more than Key
// does: distinct tuples should (essentially always) hash apart.
func TestHashSeparatesComponents(t *testing.T) {
	pairs := [][2]Tuple{
		{{String("ab"), String("c")}, {String("a"), String("bc")}},
		{{String("a\x1fb")}, {String("a"), String("b")}},
		{{Int(1), Int(2)}, {Int(12)}},
		{{Null(), String("")}, {String(""), Null()}},
	}
	for i, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("pair %d: %v and %v collide", i, p[0], p[1])
		}
	}
}

// KeyEqual and Hash must follow the canonical Key string exactly —
// including the awkward corners: the 1e15 Int/Float unification cutoff,
// signed zero, and NaN.
func TestKeyEqualMatchesKeyString(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(3), Float(3), Float(3.5), Float(math.Copysign(0, -1)),
		Float(1e16), Int(10000000000000000), Int(int64(1e15)), Float(1e15),
		Float(math.NaN()), String("a"), String(""), String("3"), String("NaN"),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.KeyEqual(b), a.Key() == b.Key(); got != want {
				t.Errorf("KeyEqual(%v, %v) = %v, Key equality = %v", a, b, got, want)
			}
			if a.Key() == b.Key() && (Tuple{a}).Hash() != (Tuple{b}).Hash() {
				t.Errorf("%v and %v share a Key but hash apart", a, b)
			}
		}
	}
}

// Collision injection: with a constant hash every key lands in one probe
// chain, so correctness rests entirely on the caller's equality.
func TestProbeTableCollisionFallback(t *testing.T) {
	var pt ProbeTable
	var keys []Tuple
	insert := func(tp Tuple) (int, bool) {
		p, added := pt.Insert(0xdead, func(p int) bool { return keys[p].KeyEqual(tp) })
		if added {
			keys = append(keys, tp)
		}
		return p, added
	}
	find := func(tp Tuple) (int, bool) {
		return pt.Find(0xdead, func(p int) bool { return keys[p].KeyEqual(tp) })
	}
	for i, tp := range []Tuple{{Int(1)}, {Int(2)}, {String("1")}, {Null()}, {Int(1), Int(2)}} {
		if p, added := insert(tp); p != i || !added {
			t.Fatalf("Insert(%v) = (%d, %v), want (%d, true)", tp, p, added, i)
		}
	}
	if p, added := insert(Tuple{Float(1)}); p != 0 || added {
		t.Errorf("Insert(Float(1)) = (%d, %v), want (0, false): unified with Int(1)", p, added)
	}
	if p, ok := find(Tuple{Float(2)}); p != 1 || !ok {
		t.Errorf("Find(Float(2)) = (%d, %v), want (1, true)", p, ok)
	}
	if _, ok := find(Tuple{Int(3)}); ok {
		t.Error("Find(Int(3)) found a key never inserted")
	}
	if pt.Len() != 5 {
		t.Errorf("Len = %d, want 5", pt.Len())
	}
}

// mapKeys are the tuple components the probe-table property tests draw
// keys from: NaN (one key for every NaN), −0 (the key of 0), ±Inf, Int(3)
// and Float(3.0) (one key), the 1e15 cutoff past which Int and Float keys
// differ, null, a string that reads like a number, and strings holding
// the separators Tuple.Key escapes.
var mapKeys = []Value{
	Null(), Int(3), Float(3), Float(3.5), Float(math.NaN()), Float(math.Copysign(0, -1)),
	Int(0), Float(math.Inf(1)), Float(math.Inf(-1)), String("a"), String("3"),
	Int(1e15), Float(1e15), Float(1e16), Int(-1), String("b"), String("a\x1fb"), String("x\x1e"),
}

// checkProbeTableOps decodes data into Insert and Find calls on a table of
// tuples kept in a slice and checks each against a map of Tuple.Key
// strings to first-inserted positions. An odd first byte pre-sizes the
// table with Grow, and a first byte with bit 1 set makes every pair whose
// first byte is 0xff a Reset (of the table and the reference); each other
// pair of bytes is one call on a tuple of one or two mapKeys components.
func checkProbeTableOps(t *testing.T, data []byte, hash func(Tuple) uint64) {
	if len(data) == 0 {
		return
	}
	var pt ProbeTable
	if data[0]&1 == 1 {
		pt.Grow(len(data) / 2)
	}
	resets := data[0]&2 != 0
	data = data[1:]
	var keys []Tuple
	ref := map[string]int{}
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		if resets && a == 0xff {
			pt.Reset()
			keys, ref = keys[:0], map[string]int{}
			continue
		}
		tp := Tuple{mapKeys[int(a>>2)%len(mapKeys)]}
		if a&2 != 0 {
			tp = append(tp, mapKeys[int(b)%len(mapKeys)])
		}
		want, seen := ref[tp.Key()]
		eq := func(p int) bool { return keys[p].KeyEqual(tp) }
		if a&1 == 0 {
			if !seen {
				want = len(ref)
			}
			p, added := pt.Insert(hash(tp), eq)
			if p != want || added == seen {
				t.Fatalf("op %d: Insert(%v) = (%d, %v), reference (%d, new %v)", i/2, tp, p, added, want, !seen)
			}
			if added {
				keys = append(keys, tp)
				ref[tp.Key()] = p
			}
		} else if p, ok := pt.Find(hash(tp), eq); ok != seen || (ok && p != want) {
			t.Fatalf("op %d: Find(%v) = (%d, %v), reference (%d, %v)", i/2, tp, p, ok, want, seen)
		}
		if pt.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, reference %d", i/2, pt.Len(), len(ref))
		}
	}
}

// TestProbeTableMatchesStringKeys runs long random Insert and Find
// sequences against a map keyed by Tuple.Key(), once with the real hash
// (the table grows through several sizes) and once with every key forced
// into one probe chain, with and without Grow.
func TestProbeTableMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		hash func(Tuple) uint64
	}{
		{"real hash", Tuple.Hash},
		{"forced collisions", func(Tuple) uint64 { return 0x5eed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, grow := range []byte{0, 1, 2, 3} {
				data := make([]byte, 12001)
				rng.Read(data)
				data[0] = grow
				checkProbeTableOps(t, data, tc.hash)
			}
		})
	}
}

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(int64(rng.Intn(20) - 10))
	case 2:
		return Float(float64(rng.Intn(20)-10) + float64(rng.Intn(2))*0.5)
	case 3:
		return Float(math.Trunc(float64(rng.Intn(20) - 10))) // unifies with Int
	default:
		letters := []string{"", "a", "b", "ab", "a\x1fb", "x\x1e"}
		return String(letters[rng.Intn(len(letters))])
	}
}

// TestProbeTableMatchesRandomTuples checks Insert and Find on tuples of one
// to three random components, many of them equal across kinds, against a
// map keyed by Tuple.Key().
func TestProbeTableMatchesRandomTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pt ProbeTable
	var keys []Tuple
	ref := map[string]int{}
	for op := 0; op < 5000; op++ {
		tp := make(Tuple, 1+rng.Intn(3))
		for i := range tp {
			tp[i] = randValue(rng)
		}
		want, seen := ref[tp.Key()]
		eq := func(p int) bool { return keys[p].KeyEqual(tp) }
		if rng.Intn(2) == 0 {
			if !seen {
				want = len(ref)
			}
			p, added := pt.Insert(tp.Hash(), eq)
			if p != want || added == seen {
				t.Fatalf("op %d: Insert(%v) = (%d, %v), reference (%d, new %v)", op, tp, p, added, want, !seen)
			}
			if added {
				keys = append(keys, tp)
				ref[tp.Key()] = p
			}
		} else if p, ok := pt.Find(tp.Hash(), eq); ok != seen || (ok && p != want) {
			t.Fatalf("op %d: Find(%v) = (%d, %v), reference (%d, %v)", op, tp, p, ok, want, seen)
		}
		if pt.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, reference %d", op, pt.Len(), len(ref))
		}
	}
}

// FuzzProbeTable is TestProbeTableMatchesStringKeys over fuzzed call
// sequences, with the real hash and with a forced-collision one.
func FuzzProbeTable(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 8, 5, 12, 3, 5, 0})
	f.Add([]byte{1, 6, 1, 10, 2, 7, 1, 11, 2, 16, 0, 20, 0, 17, 0, 21, 0})
	f.Add([]byte{0, 18, 9, 22, 9, 46, 11, 50, 12, 19, 9, 23, 9, 47, 10})
	f.Add([]byte{3, 0, 4, 1, 8, 255, 0, 1, 4, 5, 12, 255, 7, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkProbeTableOps(t, data, Tuple.Hash)
		checkProbeTableOps(t, data, func(Tuple) uint64 { return 1 })
	})
}

// A lookup allocates nothing: no key string, no bucket, no boxed hash, no
// escaping equality closure.
func TestProbeTableFindAllocs(t *testing.T) {
	var pt ProbeTable
	var keys []Tuple
	for i := 0; i < 100; i++ {
		k := Tuple{Int(int64(i)), String("k"), Float(float64(i) / 4)}
		pt.Insert(k.Hash(), func(int) bool { return false })
		keys = append(keys, k)
	}
	probes := append(keys[:len(keys):len(keys)], Tuple{Int(-1), String("absent"), Float(0)})
	if n := testing.AllocsPerRun(50, func() {
		for _, k := range probes {
			pt.Find(k.Hash(), func(p int) bool { return keys[p].KeyEqual(k) })
		}
	}); n != 0 {
		t.Errorf("ProbeTable.Find allocates %.1f times per %d lookups", n, len(probes))
	}
}

// Add is AddHashed of row r with the hash it needs: the one-row form the
// tests add with.
func (x *RowIndex) Add(r int) int { return x.AddHashed(r, x.b.HashRow(r)) }

// RowIndex keys block rows as Tuple.Key strings key their tuples: Add
// returns the first added row whose materialised tuple has the same Key.
func TestRowIndexMatchesTupleKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBlock(2)
	for i := 0; i < 3000; i++ {
		tp := Tuple{mapKeys[rng.Intn(len(mapKeys))], mapKeys[rng.Intn(len(mapKeys))]}
		b.AppendTuple(tp)
	}
	lo, hi := 100, 2000 // a range, as the ladders index one group's rows
	idx := NewRowIndex(b, hi-lo)
	first := map[string]int{}
	for r := lo; r < hi; r++ {
		key := b.Tuple(r).Key()
		if _, ok := first[key]; !ok {
			first[key] = r
		}
		if got := idx.Add(r); got != first[key] {
			t.Fatalf("Add(%d) of %v = %d, want %d", r, b.Tuple(r), got, first[key])
		}
	}
}

// probeKeys are the values the ProbeTable dedup test draws from: Int(1)
// and Float(1) (one key), NaN (one key for every NaN), null, −0 (the key
// of 0), and strings that read like numbers.
var probeKeys = []Value{
	Int(1), Float(1), Float(1.5), Float(math.NaN()), Null(), Int(0),
	Float(math.Copysign(0, -1)), String("1"), String(""), String("a"),
}

// randProbeBlock returns a block of random rows whose columns are, by
// position mod 4: ints, floats (integral, fractional and NaN), strings,
// and mixed kinds — every column with nulls.
func randProbeBlock(rng *rand.Rand, rows, width int) *Block {
	pools := [][]Value{
		{Int(1), Int(0), Int(-2), Null()},
		{Float(1), Float(1.5), Float(math.NaN()), Float(math.Copysign(0, -1)), Null()},
		{String("1"), String(""), String("a"), Null()},
		probeKeys,
	}
	b := NewBlock(width)
	for r := 0; r < rows; r++ {
		row := make(Tuple, width)
		for c := range row {
			pool := pools[c%len(pools)]
			row[c] = pool[rng.Intn(len(pool))]
		}
		b.AppendTuple(row)
	}
	return b
}

// ProbeTable dedup keyed by Block.HashCols/ColsKeyEqual (a fetch step's
// external valuations) and by Tuple.Hash/KeyEqual over a value slab (its
// X-values) finds the same distinct keys in the same first-seen order as a
// set of Tuple.Key strings, with the real hash and with every key forced
// into one chain.
func TestProbeTableMatchesStringKeyDedup(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func(uint64) uint64
	}{
		{"real hash", func(h uint64) uint64 { return h }},
		{"forced collisions", func(uint64) uint64 { return 0xdead }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 60; trial++ {
				b := randProbeBlock(rng, 1+rng.Intn(300), 1+rng.Intn(5))
				cols := rng.Perm(b.Width())[:1+rng.Intn(b.Width())]

				// Reference: first-seen rows of a set of the projections' keys.
				ref := map[string]bool{}
				var want []int32
				for r := 0; r < b.Rows(); r++ {
					if key := b.Tuple(r).Project(cols).Key(); !ref[key] {
						ref[key] = true
						want = append(want, int32(r))
					}
				}

				var rowTable ProbeTable
				var rows []int32
				for r := 0; r < b.Rows(); r++ {
					p, added := rowTable.Insert(tc.hash(b.HashCols(r, cols)), func(p int) bool {
						return b.ColsKeyEqual(int(rows[p]), cols, b, r, cols)
					})
					if added {
						rows = append(rows, int32(r))
					}
					if !b.Tuple(int(rows[p])).Project(cols).KeyEqual(b.Tuple(r).Project(cols)) {
						t.Fatalf("trial %d row %d: filed under row %d, a different key", trial, r, rows[p])
					}
				}
				if len(rows) != len(want) || rowTable.Len() != len(want) {
					t.Fatalf("trial %d: %d distinct rows, reference has %d", trial, len(rows), len(want))
				}
				for i := range want {
					if rows[i] != want[i] {
						t.Fatalf("trial %d: distinct row %d is %d, reference's is %d", trial, i, rows[i], want[i])
					}
				}

				var slabTable ProbeTable
				var slab []Value
				w := len(cols)
				for r := 0; r < b.Rows(); r++ {
					x := b.Tuple(r).Project(cols)
					if _, added := slabTable.Insert(tc.hash(x.Hash()), func(p int) bool {
						return x.KeyEqual(slab[p*w : (p+1)*w])
					}); added {
						slab = append(slab, x...)
					}
				}
				if slabTable.Len() != len(want) {
					t.Fatalf("trial %d: %d distinct slab keys, reference has %d", trial, slabTable.Len(), len(want))
				}
				for i, r := range want {
					if !b.Tuple(int(r)).Project(cols).EqualTuple(slab[i*w : (i+1)*w]) {
						t.Fatalf("trial %d: slab key %d is %v, want row %d's %v", trial, i, slab[i*w:(i+1)*w], r, b.Tuple(int(r)).Project(cols))
					}
				}
			}
		})
	}
}

// identical is representation equality: same kind and payload, float bits
// included.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// KeyIndex numbers tuples as a map of Tuple.Key strings to first-seen
// positions does, over keys of every hostile kind and width (zero-width
// included): Add and AddRow agree with the map, Find answers without
// changing the index, and each key row keeps the spelling of its first Add
// until Respell rewrites it — after which Find still finds it by every
// spelling.
func TestKeyIndexMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		width := trial % 4
		b := randProbeBlock(rng, 1+rng.Intn(200), max(width, 1))
		tuple := func(r int) Tuple { return b.Tuple(r)[:width] }
		ref := map[string]int{}
		var refKeys []Tuple // ref's keys, by number
		x := MakeKeyIndex(width)
		y := MakeKeyIndex(width) // filled through AddRow
		rows := NewBlock(width)
		for r := 0; r < b.Rows(); r++ {
			rows.AppendTuple(tuple(r))
		}
		for r := 0; r < b.Rows(); r++ {
			tup := tuple(r)
			want, seen := ref[tup.Key()]
			if got, ok := x.Find(tup); ok != seen || (ok && got != want) {
				t.Fatalf("trial %d row %d: Find = (%d, %v), map (%d, %v)", trial, r, got, ok, want, seen)
			}
			if !seen {
				want = len(ref)
				ref[tup.Key()] = want
				refKeys = append(refKeys, tup)
			}
			n := x.Len()
			if got, added := x.Add(tup); got != want || added == seen {
				t.Fatalf("trial %d row %d: Add = (%d, %v), map (%d, new %v)", trial, r, got, added, want, !seen)
			}
			if got, added := y.AddRow(rows, r); got != want || added == seen {
				t.Fatalf("trial %d row %d: AddRow = (%d, %v), map (%d, new %v)", trial, r, got, added, want, !seen)
			}
			if !seen && (x.Len() != n+1 || !sliceIdentical(x.Keys().Tuple(want), tup)) {
				t.Fatalf("trial %d row %d: key %d spelled %v, added as %v", trial, r, want, x.Keys().Tuple(want), tup)
			}
		}
		// Respell every key with a canonically equal spelling and look it
		// up by both.
		for r := 0; r < b.Rows(); r++ {
			tup := tuple(r)
			p, _ := x.Find(tup)
			x.Respell(p, tup)
			if !sliceIdentical(x.Keys().Tuple(p), tup) {
				t.Fatalf("trial %d row %d: respelled key %d reads %v, want %v", trial, r, p, x.Keys().Tuple(p), tup)
			}
			for q, k := range refKeys {
				if got, ok := x.Find(k); !ok || got != q {
					t.Fatalf("trial %d: after a respell, key %v found at (%d, %v), want %d", trial, k, got, ok, q)
				}
			}
		}
		if x.Len() != len(ref) || y.Len() != len(ref) {
			t.Fatalf("trial %d: %d and %d keys, map %d", trial, x.Len(), y.Len(), len(ref))
		}
	}
}

func sliceIdentical(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// put overwrites one row with any value — same kind, another kind, null,
// into typed, nullable and mixed columns — leaving every other row as it
// was.
func TestColumnPut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := randProbeBlock(rng, 1+rng.Intn(80), 4)
		c := rng.Intn(4)
		want := make([]Value, b.Rows())
		for r := range want {
			want[r] = b.Value(r, c)
		}
		for n := rng.Intn(5); n >= 0; n-- {
			r, v := rng.Intn(b.Rows()), probeKeys[rng.Intn(len(probeKeys))]
			b.Col(c).put(r, v)
			want[r] = v
		}
		for r, v := range want {
			if got := b.Value(r, c); !identical(got, v) || b.Col(c).IsNull(r) != (v.Kind() == KindNull) {
				t.Fatalf("trial %d row %d: reads %v, want %v", trial, r, got, v)
			}
		}
	}
}

// A reset RowIndex forgets its rows and indexes a new block as a fresh one
// does, whether its table is reused, too small or far too large.
func TestRowIndexReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewRowIndex(NewBlock(1), 0)
	for _, n := range []int{300, 5, 0, 1, 80, 2000, 3} {
		b := randProbeBlock(rng, n, 2)
		x.Reset(b, n)
		fresh := NewRowIndex(b, n)
		for r := 0; r < n; r++ {
			if got, want := x.Add(r), fresh.Add(r); got != want {
				t.Fatalf("n=%d row %d: reset index says %d, fresh %d", n, r, got, want)
			}
		}
	}
}

// Column.keyEqual reads typed payloads directly; it must decide exactly as
// Value.KeyEqual on the reconstructed value, for int, float and string
// columns with and without nulls and for mixed ones, against probes of
// every kind.
func TestColumnKeyEqualMatchesValue(t *testing.T) {
	pools := [][]Value{
		{Int(3), Int(0), Int(-7), Int(1e15)},
		{Float(3), Float(2.5), Float(math.NaN()), Float(math.Copysign(0, -1)), Float(1e15)},
		{String("3"), String(""), String("a")},
		{Int(3), String("3"), Float(3)},
	}
	probes := append(append([]Value{}, probeKeys...), Int(3), Float(3), Int(-7), Float(-7), String("3"), Int(1e15), Float(1e15))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		pool := pools[trial%len(pools)]
		var c Column
		for n := 1 + rng.Intn(20); n > 0; n-- {
			v := pool[rng.Intn(len(pool))]
			if trial%3 == 0 && rng.Intn(4) == 0 {
				v = Null()
			}
			c.Append(v)
		}
		for i := 0; i < c.Len(); i++ {
			for _, v := range probes {
				if got, want := c.keyEqual(i, v), c.Value(i).KeyEqual(v); got != want {
					t.Fatalf("trial %d row %d (%v) against %v: keyEqual %v, KeyEqual %v", trial, i, c.Value(i), v, got, want)
				}
			}
		}
	}
}
