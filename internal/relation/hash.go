package relation

import (
	"math"
	"math/bits"
)

// This file provides the allocation-free 64-bit tuple hashing that the hot
// execution paths key their maps by. Tuple.Key builds a canonical string
// (one allocation per row); Hash folds the same canonical encoding into an
// FNV-1a hash without materialising it. TupleMap/TupleSet probe by that hash
// and verify candidates with the canonical-encoding equality (KeyEqual per
// component), so hash collisions cost a comparison, never a wrong answer, and
// the maps key exactly like maps of Tuple.Key() strings. ProbeTable is the
// same table for keys the caller stores itself, such as block rows.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the tuple's canonical encoding (FNV-1a).
// It is consistent with Key: tuples with equal canonical encodings
// (Int/Float unified when integral, below Key's 1e15 cutoff) hash equally;
// distinct tuples may collide and callers must verify with KeyEqual.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h = v.hashInto(h)
		h = (h ^ 0x1f) * fnvPrime64 // component separator
	}
	return h
}

// hashInto folds the value's canonical encoding into h, mirroring Key: a
// kind tag, then the payload, with integral floats unified with ints.
func (v Value) hashInto(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return (h ^ 'n') * fnvPrime64
	case KindInt:
		return hashUint64((h^'i')*fnvPrime64, uint64(v.i))
	case KindFloat:
		if i, ok := v.canonInt(); ok {
			return hashUint64((h^'i')*fnvPrime64, uint64(i))
		}
		bits := math.Float64bits(v.f)
		if math.IsNaN(v.f) {
			// All NaNs share one canonical Key ("fNaN"); hash them alike.
			bits = math.Float64bits(math.NaN())
		}
		return hashUint64((h^'f')*fnvPrime64, bits)
	default:
		h = (h ^ 's') * fnvPrime64
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime64
		}
		return h
	}
}

func hashUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// KeyEqual reports component-wise canonical-encoding equality: the same
// relation Tuple.Key strings would express, without building them.
func (t Tuple) KeyEqual(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].KeyEqual(o[i]) {
			return false
		}
	}
	return true
}

// TupleMap is a map keyed by a tuple's canonical encoding (KeyEqual per
// component: Int/Float unified when integral, exactly as Tuple.Key) that
// never materialises string keys. It is stored flat, with no allocation per
// entry: the entries sit in one slice, and an open-addressing table of entry
// positions, probed linearly from the home slot of the entry's Tuple.Hash,
// finds them; a probe verifies candidates with Tuple.KeyEqual, so hash
// collisions cost a comparison, never a wrong answer. The zero value is an
// empty map ready for use. Not safe for concurrent mutation.
type TupleMap[V any] struct {
	hash    func(Tuple) uint64 // nil means Tuple.Hash
	slots   []int32            // entry position + 1 per slot, 0 = free; len is a power of two
	shift   uint               // 64 − log2(len(slots))
	entries []tupleEntry[V]
}

// tupleEntry is one key/value pair with its key's hash.
type tupleEntry[V any] struct {
	key  Tuple
	hash uint64
	val  V
}

// NewTupleMap returns an empty map sized for n entries (0 is fine).
func NewTupleMap[V any](n int) *TupleMap[V] {
	m := &TupleMap[V]{}
	if n > 0 {
		m.resize(n)
		m.entries = make([]tupleEntry[V], 0, n)
	}
	return m
}

// newTupleMapHash injects the hash function, so tests can force collisions.
func newTupleMapHash[V any](n int, hash func(Tuple) uint64) *TupleMap[V] {
	m := NewTupleMap[V](n)
	m.hash = hash
	return m
}

func (m *TupleMap[V]) hashOf(t Tuple) uint64 {
	if m.hash == nil {
		return t.Hash()
	}
	return m.hash(t)
}

// home returns the slot a probe for hash h starts at: the top bits of h
// times 2^64/φ, which spreads hashes that differ only in low bits.
func (m *TupleMap[V]) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> m.shift)
}

// resize rebuilds the slot table to hold n entries at a load of at most 3/4.
func (m *TupleMap[V]) resize(n int) {
	size := 8
	for size*3/4 < n {
		size *= 2
	}
	m.slots = make([]int32, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for p := range m.entries {
		s := m.home(m.entries[p].hash)
		for m.slots[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		m.slots[s] = int32(p + 1)
	}
}

// find returns the slot holding the entry for t and its position in
// entries, or, when t is absent, the free slot that ends its probe and −1.
// The table must not be empty.
func (m *TupleMap[V]) find(t Tuple, h uint64) (slot, pos int) {
	mask := len(m.slots) - 1
	for s := m.home(h); ; s = (s + 1) & mask {
		p := int(m.slots[s]) - 1
		if p < 0 {
			return s, -1
		}
		if e := &m.entries[p]; e.hash == h && e.key.KeyEqual(t) {
			return s, p
		}
	}
}

// lookup returns the position of the entry for t, or −1.
func (m *TupleMap[V]) lookup(t Tuple) int {
	if len(m.entries) == 0 {
		return -1
	}
	_, p := m.find(t, m.hashOf(t))
	return p
}

// upsert returns the position of the entry for t, appending one with the
// zero value when t is absent (added reports which).
func (m *TupleMap[V]) upsert(t Tuple) (pos int, added bool) {
	h := m.hashOf(t)
	if len(m.slots) == 0 {
		m.resize(1)
	}
	s, p := m.find(t, h)
	if p >= 0 {
		return p, false
	}
	if len(m.entries) >= len(m.slots)*3/4 {
		m.resize(2 * len(m.slots) * 3 / 4)
		s, _ = m.find(t, h)
	}
	m.entries = append(m.entries, tupleEntry[V]{key: t, hash: h})
	m.slots[s] = int32(len(m.entries))
	return len(m.entries) - 1, true
}

// Len returns the number of entries.
func (m *TupleMap[V]) Len() int { return len(m.entries) }

// Get returns the value stored under a tuple equal to t.
func (m *TupleMap[V]) Get(t Tuple) (V, bool) {
	if p := m.lookup(t); p >= 0 {
		return m.entries[p].val, true
	}
	var zero V
	return zero, false
}

// Put stores v under t, replacing any existing entry for an equal tuple.
// The tuple is retained by reference; callers must not mutate it afterwards.
func (m *TupleMap[V]) Put(t Tuple, v V) {
	p, _ := m.upsert(t)
	m.entries[p].val = v
}

// GetOrInsert returns a pointer to the value stored under t, inserting the
// zero value first when absent. The pointer is only valid until the next
// mutation of the map; callers use it to update in place immediately (e.g.
// appending to a slice value) without a second probe.
func (m *TupleMap[V]) GetOrInsert(t Tuple) *V {
	p, _ := m.upsert(t)
	return &m.entries[p].val
}

// Delete removes the entry for t, reporting whether one existed. The slot
// is freed by backward shifting, so no probe ever crosses a tombstone, and
// the last entry moves into the vacated position.
func (m *TupleMap[V]) Delete(t Tuple) bool {
	if len(m.entries) == 0 {
		return false
	}
	s, p := m.find(t, m.hashOf(t))
	if p < 0 {
		return false
	}
	mask := len(m.slots) - 1
	for j := (s + 1) & mask; m.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at s iff s lies on its probe path,
		// i.e. no further from j than j's home slot is.
		if home := m.home(m.entries[m.slots[j]-1].hash); (j-home)&mask >= (j-s)&mask {
			m.slots[s] = m.slots[j]
			s = j
		}
	}
	m.slots[s] = 0
	last := len(m.entries) - 1
	if p != last {
		m.entries[p] = m.entries[last]
		ls := m.home(m.entries[p].hash)
		for int(m.slots[ls]) != last+1 {
			ls = (ls + 1) & mask
		}
		m.slots[ls] = int32(p + 1)
	}
	m.entries[last] = tupleEntry[V]{}
	m.entries = m.entries[:last]
	return true
}

// Range calls f for every entry until f returns false, in insertion order
// as perturbed by deletes (each moves the last entry into its hole). f must
// not mutate the map.
func (m *TupleMap[V]) Range(f func(Tuple, V) bool) {
	for i := range m.entries {
		if !f(m.entries[i].key, m.entries[i].val) {
			return
		}
	}
}

// TupleSet is a set of tuples under canonical-encoding (KeyEqual) semantics
// with hashed membership tests. The zero value is not usable; call
// NewTupleSet.
type TupleSet struct {
	m *TupleMap[struct{}]
}

// NewTupleSet returns an empty set sized for n entries (0 is fine).
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{m: NewTupleMap[struct{}](n)}
}

// Add inserts t and reports whether it was absent (i.e. newly added).
func (s *TupleSet) Add(t Tuple) bool {
	_, added := s.m.upsert(t)
	return added
}

// Has reports membership.
func (s *TupleSet) Has(t Tuple) bool { return s.m.lookup(t) >= 0 }

// Len returns the number of members.
func (s *TupleSet) Len() int { return s.m.Len() }

// ProbeTable is an open-addressing hash table of the dense positions 0, 1,
// 2, … in insertion order, keyed by a hash and an equality the caller
// supplies: the keys stay wherever the caller keeps them (block rows, a
// value slab), so the table is two pointer-free slices that the garbage
// collector never scans, and it allocates O(log n) times while it grows to
// n positions. A probe runs linearly from the home slot of its hash and
// tests a candidate with the caller's equality only when the stored hashes
// agree, so hash collisions cost a comparison, never a wrong answer. With
// Tuple.Hash or Block.HashCols and the matching KeyEqual it keys exactly as
// TupleMap does. The zero value is an empty table ready for use.
type ProbeTable struct {
	slots  []int32  // position + 1 per slot, 0 = free; len is a power of two
	shift  uint     // 64 − log2(len(slots))
	hashes []uint64 // hashes[p] is the hash position p was inserted under
}

// Len returns the number of positions.
func (t *ProbeTable) Len() int { return len(t.hashes) }

// Insert returns the first position p inserted under hash h for which
// eq(p) holds. When there is none, it inserts position Len() under h and
// reports it added; the caller stores that key at the new position.
func (t *ProbeTable) Insert(h uint64, eq func(p int) bool) (p int, added bool) {
	if len(t.hashes) >= len(t.slots)*3/4 {
		t.resize(len(t.hashes) + 1)
	}
	mask := len(t.slots) - 1
	s := t.home(h)
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		if p := int(t.slots[s]) - 1; t.hashes[p] == h && eq(p) {
			return p, false
		}
	}
	t.hashes = append(t.hashes, h)
	t.slots[s] = int32(len(t.hashes))
	return len(t.hashes) - 1, true
}

// Find returns the first position p inserted under hash h for which eq(p)
// holds, without inserting anything: a lookup that never mutates the
// table, so concurrent Finds are safe while nothing inserts.
func (t *ProbeTable) Find(h uint64, eq func(p int) bool) (p int, ok bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for s := t.home(h); t.slots[s] != 0; s = (s + 1) & mask {
		if p := int(t.slots[s]) - 1; t.hashes[p] == h && eq(p) {
			return p, true
		}
	}
	return 0, false
}

// home returns the slot a probe for hash h starts at, as TupleMap.home.
func (t *ProbeTable) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> t.shift) }

// resize rebuilds the slot table to hold n positions at a load of at most
// 3/4, doubling at least.
func (t *ProbeTable) resize(n int) {
	size := max(8, 2*len(t.slots))
	for size*3/4 < n {
		size *= 2
	}
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for p, h := range t.hashes {
		s := t.home(h)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(p + 1)
	}
}

// KeyIndex numbers distinct tuples 0, 1, 2, … in insertion order, keeping
// each one once as a row of a typed key block: row p is the tuple numbered
// p, spelled as it was first added. A ProbeTable finds the rows, hashed
// with Block.HashRow (the fold Tuple.Hash makes) and compared with
// Block.RowKeyEqualTuple, so a KeyIndex keys exactly as TupleMap does while
// holding a handful of flat columns instead of an object per key. A
// zero-width index holds at most the empty tuple.
type KeyIndex struct {
	keys *Block
	t    ProbeTable
}

// MakeKeyIndex returns an empty index of tuples of the given width.
func MakeKeyIndex(width int) KeyIndex { return KeyIndex{keys: NewBlock(width)} }

// Len returns the number of tuples indexed.
func (x *KeyIndex) Len() int { return x.t.Len() }

// Keys returns the key block, row p holding tuple p. It is shared storage:
// read-only.
func (x *KeyIndex) Keys() *Block { return x.keys }

// Find returns the number of the tuple canonically equal to t. It never
// mutates the index.
func (x *KeyIndex) Find(t Tuple) (p int, ok bool) {
	return x.t.Find(t.Hash(), func(p int) bool { return x.keys.RowKeyEqualTuple(p, t) })
}

// Add returns the number of the tuple canonically equal to t, numbering t
// next (and copying its values into the key block) when there is none.
func (x *KeyIndex) Add(t Tuple) (p int, added bool) {
	p, added = x.t.Insert(t.Hash(), func(p int) bool { return x.keys.RowKeyEqualTuple(p, t) })
	if added {
		x.keys.AppendTuple(t)
	}
	return p, added
}

// Respell overwrites tuple p's values with t's, which must be canonically
// equal to them: the index keys as before, and Keys spells tuple p as t.
// Values already spelled identically are left alone, so respelling a key
// to its own spelling never changes the key block's storage.
func (x *KeyIndex) Respell(p int, t Tuple) {
	for j, v := range t {
		if old := x.keys.Value(p, j); old.kind != v.kind || old.i != v.i || old.s != v.s ||
			math.Float64bits(old.f) != math.Float64bits(v.f) {
			x.keys.Col(j).put(p, v)
		}
	}
}

// AddRow is Add of row r of src, which must have the index's width.
func (x *KeyIndex) AddRow(src *Block, r int) (p int, added bool) {
	p, added = x.t.Insert(src.HashRow(r), func(p int) bool { return x.keys.RowKeyEqual(p, src, r) })
	if added {
		x.keys.AppendRow(src, r)
	}
	return p, added
}

// RowIndex finds, among the rows of a block added to it, the first one
// canonically equal to a given row of the block (Block.HashRow and
// Block.RowKeyEqual: the equality TupleMap keys by), without materialising
// a tuple.
type RowIndex struct {
	b     *Block
	t     ProbeTable
	added []int32 // the row at each position of t
}

// NewRowIndex returns an empty index over the rows of b sized for n of
// them.
func NewRowIndex(b *Block, n int) *RowIndex {
	x := &RowIndex{b: b, added: make([]int32, 0, n)}
	x.t.hashes = make([]uint64, 0, n)
	x.t.resize(n)
	return x
}

// Reset empties the index and points it at the rows of b, sized for n of
// them, reusing its memory: the slot table is kept and cleared unless it
// is too small, or more than four times too large (clearing it would then
// cost more than the rows it is to index).
func (x *RowIndex) Reset(b *Block, n int) {
	x.b, x.added, x.t.hashes = b, x.added[:0], x.t.hashes[:0]
	if need := max(8, n*4/3+1); len(x.t.slots) >= need && len(x.t.slots) <= 4*need {
		clear(x.t.slots)
		return
	}
	x.t.slots = nil
	x.t.resize(n)
}

// Add returns the first added row equal to row r of the index's block,
// adding r itself when there is none.
func (x *RowIndex) Add(r int) int {
	p, added := x.t.Insert(x.b.HashRow(r), func(p int) bool {
		return x.b.RowKeyEqual(int(x.added[p]), x.b, r)
	})
	if added {
		x.added = append(x.added, int32(r))
	}
	return int(x.added[p])
}
