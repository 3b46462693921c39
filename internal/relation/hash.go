package relation

import (
	"math"
	"math/bits"
	"slices"
)

// This file provides the allocation-free 64-bit tuple hashing that the hot
// execution paths key their tables by, and the one hash table they use.
// Tuple.Key builds a canonical string (one allocation per row); Hash folds
// the same canonical encoding into an FNV-1a hash without materialising it.
// ProbeTable probes by that hash and verifies candidates with the
// canonical-encoding equality (KeyEqual per component), so hash collisions
// cost a comparison, never a wrong answer, and a table keys exactly as
// Tuple.Key strings do. The keys stay wherever the caller keeps them: a
// relation's tuples, block rows, a value slab.

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

// HashCols returns the hash of t's projection onto the positions idx
// without building it: t.HashCols(idx) == t.Project(idx).Hash().
func (t Tuple) HashCols(idx []int) uint64 {
	h := uint64(fnvOffset64)
	for _, j := range idx {
		h = t[j].hashInto(h)
		h = (h ^ 0x1f) * fnvPrime64
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

// ProbeTable is an open-addressing hash table of the dense positions 0, 1,
// 2, … in insertion order, keyed by a hash and an equality the caller
// supplies: the keys stay wherever the caller keeps them (block rows, a
// value slab), so the table is two pointer-free slices that the garbage
// collector never scans, and it allocates O(log n) times while it grows to
// n positions. A probe runs linearly from the home slot of its hash and
// tests a candidate with the caller's equality only when the stored hashes
// agree, so hash collisions cost a comparison, never a wrong answer. With
// Tuple.Hash or Block.HashCols and the matching KeyEqual it keys exactly as
// Tuple.Key strings do. The zero value is an empty table ready for use.
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

// Grow sizes the table for n positions in all: inserting up to n
// allocates nothing more. Callers that know their key count call it on
// the empty table.
func (t *ProbeTable) Grow(n int) {
	t.hashes = slices.Grow(t.hashes, max(0, n-len(t.hashes)))
	if n > len(t.slots)*3/4 {
		t.resize(n)
	}
}

// Reset empties the table and keeps its memory, the slot table cleared,
// for the next fill.
func (t *ProbeTable) Reset() {
	clear(t.slots)
	t.hashes = t.hashes[:0]
}

// RetainedBytes returns the bytes the table keeps across a Reset.
func (t *ProbeTable) RetainedBytes() int { return 4*cap(t.slots) + 8*cap(t.hashes) }

// home returns the slot a probe for hash h starts at: the top bits of h
// times 2^64/φ, which spreads hashes that differ only in low bits.
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
// Block.RowKeyEqualTuple, so a KeyIndex keys exactly as Tuple.Key strings
// do while holding a handful of flat columns instead of an object per key.
// A zero-width index holds at most the empty tuple.
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
// Block.RowKeyEqual: the equality Tuple.Key strings express), without
// materialising a tuple.
type RowIndex struct {
	b     *Block
	t     ProbeTable
	added []int32 // the row at each position of t
}

// NewRowIndex returns an empty index over the rows of b sized for n of
// them.
func NewRowIndex(b *Block, n int) *RowIndex {
	x := &RowIndex{b: b, added: make([]int32, 0, n)}
	x.t.Grow(n)
	return x
}

// Reset empties the index and points it at the rows of b, sized for n of
// them, reusing its memory (ProbeTable.Reset).
func (x *RowIndex) Reset(b *Block, n int) {
	x.b, x.added = b, x.added[:0]
	x.t.Reset()
	x.t.Grow(n)
}

// AddHashed returns the first added row equal to row r of the index's
// block, adding r itself when there is none. h is the row's Block.HashRow,
// which the caller computes (Block.HashRows hashes a range of rows column
// by column).
func (x *RowIndex) AddHashed(r int, h uint64) int {
	p, added := x.t.Insert(h, func(p int) bool {
		return x.b.RowKeyEqual(int(x.added[p]), x.b, r)
	})
	if added {
		x.added = append(x.added, int32(r))
	}
	return int(x.added[p])
}
