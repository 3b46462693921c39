// Columnar storage: kind-homogeneous typed columns with validity bitmaps.
//
// A Column stores one attribute across many rows as a single flat slice of
// the payload type ([]int64, []float64 or []string) plus an optional
// null/validity bitmap, instead of one Value per row inside a []Value tuple.
// The executor's hot paths iterate these flat slices block-at-a-time; rows
// are only materialised back into Tuples at the answer boundary. Columns
// whose rows genuinely mix kinds (rare — e.g. an attribute holding both
// strings and ints) fall back to a per-row []Value representation, so the
// columnar layout never changes what values round-trip.
package relation

import (
	"slices"
	"unsafe"
)

// Column is typed columnar storage for one attribute. The zero Column is an
// empty column ready for Append. Reading (Value, IsNull, hashing) is
// allocation-free: Value is a value struct reconstructed from the flat
// payload slices.
//
// Invariants: once a non-null value fixes the payload kind, the payload
// slice holds exactly one slot per row (zero-valued at null positions);
// the validity bitmap is allocated lazily on the first null and bit i is
// set iff row i is non-null; a kind conflict migrates the column to the
// mixed []Value fallback.
type Column struct {
	kind  Kind // payload kind of non-null rows; KindNull until one is seen
	mixed bool // true: vals holds every row verbatim (kind-conflict fallback)
	n     int
	// valid is a little-endian bitmap: bit i set = row i non-null. nil means
	// no row is null. Only bits < n are meaningful.
	valid  []uint64
	ints   []int64
	floats []float64
	strs   []string
	vals   []Value
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return c.n }

// Kind returns the payload kind of the column's non-null rows (KindNull when
// none has been appended yet); mixed columns report their rows individually
// via Value.
func (c *Column) Kind() Kind { return c.kind }

// Mixed reports whether the column fell back to per-row Value storage
// because its rows mix payload kinds.
func (c *Column) Mixed() bool { return c.mixed }

// IsNull reports whether row i is null.
func (c *Column) IsNull(i int) bool {
	if c.valid == nil {
		return !c.mixed && c.kind == KindNull
	}
	return c.valid[i>>6]&(1<<(uint(i)&63)) == 0
}

// Value reconstructs row i as a Value. The reconstruction allocates nothing
// (string payloads share the column's backing string headers).
func (c *Column) Value(i int) Value {
	if c.mixed {
		return c.vals[i]
	}
	if c.IsNull(i) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Value{kind: KindInt, i: c.ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: c.floats[i]}
	default:
		return Value{kind: KindString, s: c.strs[i]}
	}
}

// setValid marks row i (which must be the next row, i == previous n) as
// non-null (ok) or null (!ok), allocating the bitmap on the first null.
func (c *Column) setValid(i int, ok bool) {
	if ok {
		if c.valid != nil {
			c.valid = growBitmap(c.valid, i)
			c.valid[i>>6] |= 1 << (uint(i) & 63)
		}
		return
	}
	if c.valid == nil {
		c.valid = make([]uint64, (i>>6)+1)
		for j := 0; j < i; j++ {
			c.valid[j>>6] |= 1 << (uint(j) & 63)
		}
		return
	}
	c.valid = growBitmap(c.valid, i)
	c.valid[i>>6] &^= 1 << (uint(i) & 63)
}

func growBitmap(b []uint64, i int) []uint64 {
	for len(b) <= i>>6 {
		b = append(b, 0)
	}
	return b
}

// setKind fixes the payload kind, back-filling zero slots for the rows
// appended so far (which were all null), in the payload slice's own memory
// when it has the room (a Reset column keeps it).
func (c *Column) setKind(k Kind) {
	c.kind = k
	switch k {
	case KindInt:
		c.ints = zeroed(c.ints, c.n)
	case KindFloat:
		c.floats = zeroed(c.floats, c.n)
	case KindString:
		c.strs = zeroed(c.strs, c.n)
	}
}

// zeroed returns buf resized to n zero elements, freshly allocated unless
// buf has the capacity.
func zeroed[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Reset empties the column and returns it to the state of the zero Column —
// payload kind KindNull, not mixed, no validity bitmap — while keeping its
// payload slices' memory for the rows appended next. A reset column fills
// exactly as a fresh one would: the same kind, the same fallbacks, the same
// values.
func (c *Column) Reset() {
	*c = Column{ints: c.ints[:0], floats: c.floats[:0], strs: c.strs[:0], vals: c.vals[:0]}
}

// retainedBytes returns the bytes of payload and bitmap memory the column
// keeps across a Reset.
func (c *Column) retainedBytes() int {
	return 8*(cap(c.valid)+cap(c.ints)+cap(c.floats)) +
		int(unsafe.Sizeof(""))*cap(c.strs) + int(unsafe.Sizeof(Value{}))*cap(c.vals)
}

// toMixed migrates the column to the per-row []Value fallback, materialising
// the rows appended so far.
func (c *Column) toMixed() {
	vals := make([]Value, c.n)
	for i := range vals {
		vals[i] = c.Value(i)
	}
	c.mixed = true
	c.vals = vals
	c.ints, c.floats, c.strs = nil, nil, nil
}

// Append adds one row holding v. Appending a kind that conflicts with the
// column's fixed payload kind migrates the column to mixed storage.
func (c *Column) Append(v Value) {
	i := c.n
	if c.mixed {
		c.vals = append(c.vals, v)
		c.setValid(i, v.kind != KindNull)
		c.n++
		return
	}
	if v.kind == KindNull {
		c.setValid(i, false)
		switch c.kind {
		case KindInt:
			c.ints = append(c.ints, 0)
		case KindFloat:
			c.floats = append(c.floats, 0)
		case KindString:
			c.strs = append(c.strs, "")
		}
		c.n++
		return
	}
	if c.kind == KindNull {
		c.setKind(v.kind)
	} else if c.kind != v.kind {
		c.toMixed()
		c.vals = append(c.vals, v)
		c.setValid(i, true)
		c.n++
		return
	}
	switch v.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
	case KindFloat:
		c.floats = append(c.floats, v.f)
	default:
		c.strs = append(c.strs, v.s)
	}
	c.setValid(i, true)
	c.n++
}

// AppendRange appends rows [lo, hi) of src. Homogeneous same-kind ranges
// copy the flat payload slices directly; everything else falls back to
// per-row Append, so the result is always row-for-row identical to the
// per-row path.
func (c *Column) AppendRange(src *Column, lo, hi int) {
	if lo >= hi {
		return
	}
	if !c.mixed && !src.mixed && src.kind != KindNull &&
		(c.kind == src.kind || c.kind == KindNull) {
		if c.kind == KindNull {
			c.setKind(src.kind)
		}
		switch src.kind {
		case KindInt:
			c.ints = append(c.ints, src.ints[lo:hi]...)
		case KindFloat:
			c.floats = append(c.floats, src.floats[lo:hi]...)
		default:
			c.strs = append(c.strs, src.strs[lo:hi]...)
		}
		if src.valid == nil && c.valid == nil {
			c.n += hi - lo
			return
		}
		for i := lo; i < hi; i++ {
			c.setValid(c.n, !src.IsNull(i))
			c.n++
		}
		return
	}
	for i := lo; i < hi; i++ {
		c.Append(src.Value(i))
	}
}

// AppendRepeat appends count rows all holding v (broadcast: the executor
// uses this to replicate a join prefix across a fetched block).
func (c *Column) AppendRepeat(v Value, count int) {
	if count <= 0 {
		return
	}
	if !c.mixed && v.kind != KindNull && (c.kind == v.kind || c.kind == KindNull) {
		if c.kind == KindNull {
			c.setKind(v.kind)
		}
		switch v.kind {
		case KindInt:
			c.ints = slices.Grow(c.ints, count)
			for j := 0; j < count; j++ {
				c.ints = append(c.ints, v.i)
			}
		case KindFloat:
			c.floats = slices.Grow(c.floats, count)
			for j := 0; j < count; j++ {
				c.floats = append(c.floats, v.f)
			}
		default:
			c.strs = slices.Grow(c.strs, count)
			for j := 0; j < count; j++ {
				c.strs = append(c.strs, v.s)
			}
		}
		if c.valid == nil {
			c.n += count
			return
		}
		for j := 0; j < count; j++ {
			c.setValid(c.n, true)
			c.n++
		}
		return
	}
	for j := 0; j < count; j++ {
		c.Append(v)
	}
}

// AppendIndexes appends src's rows base+i for each i of idx, in order
// (gather: the executor uses this to emit the surviving rows of a selection
// or the matched pairs of a join, and a fetch the items a level view
// selects, one column at a time). Homogeneous same-kind sources copy from
// the flat payload slices; everything else falls back to per-row Append, so
// the result is always row-for-row identical to the per-row path.
func (c *Column) AppendIndexes(src *Column, idx []int32, base int) {
	if !c.mixed && !src.mixed && src.kind != KindNull &&
		(c.kind == src.kind || c.kind == KindNull) {
		if c.kind == KindNull {
			c.setKind(src.kind)
		}
		switch src.kind {
		case KindInt:
			c.ints = gather(c.ints, src.ints[base:], idx)
		case KindFloat:
			c.floats = gather(c.floats, src.floats[base:], idx)
		default:
			c.strs = gather(c.strs, src.strs[base:], idx)
		}
		if src.valid == nil && c.valid == nil {
			c.n += len(idx)
			return
		}
		for _, i := range idx {
			c.setValid(c.n, !src.IsNull(base+int(i)))
			c.n++
		}
		return
	}
	for _, i := range idx {
		c.Append(src.Value(base + int(i)))
	}
}

// gather appends src[i] for each i of idx to dst.
func gather[T any](dst, src []T, idx []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	for k, i := range idx {
		out[k] = src[i]
	}
	return dst
}

// Reserve grows the column's payload capacity for n more rows of kind k,
// fixing the payload kind if the column is still empty. It never changes the
// rows a later Append produces — a conflicting reservation is simply not
// used — so it is purely an allocation hint for bulk fills of known size.
func (c *Column) Reserve(k Kind, n int) {
	if c.mixed {
		c.vals = slices.Grow(c.vals, n)
		return
	}
	if k == KindNull {
		return
	}
	if c.kind == KindNull {
		c.setKind(k)
	}
	if c.kind != k {
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = slices.Grow(c.ints, n)
	case KindFloat:
		c.floats = slices.Grow(c.floats, n)
	case KindString:
		c.strs = slices.Grow(c.strs, n)
	}
}

// MakeColumn returns a column of n rows of payload kind k, each holding the
// kind's zero value (KindNull gives n null rows), for a bulk fill of known
// size through Set.
func MakeColumn(k Kind, n int) Column {
	c := Column{n: n}
	c.setKind(k)
	return c
}

// Set overwrites row i with v and reports true when v is a non-null value of
// the column's payload kind and the column holds no nulls and no mixed
// kinds; otherwise it changes nothing and reports false, and the caller
// builds the column with Append instead. Set writes only row i's payload
// slot, so goroutines may Set distinct rows concurrently.
func (c *Column) Set(i int, v Value) bool {
	if c.mixed || c.valid != nil || v.kind != c.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		c.ints[i] = v.i
	case KindFloat:
		c.floats[i] = v.f
	case KindString:
		c.strs[i] = v.s
	default:
		return false
	}
	return true
}

// put overwrites row i with v, whatever v's kind: through Set when it can,
// and otherwise after migrating the column to mixed storage, so a put
// never fails but may cost the column its typed payload.
func (c *Column) put(i int, v Value) {
	if c.Set(i, v) {
		return
	}
	if !c.mixed {
		c.toMixed()
	}
	c.vals[i] = v
	if v.kind == KindNull && c.valid == nil {
		c.valid = make([]uint64, (c.n+63)>>6)
		for j := 0; j < c.n; j++ {
			c.valid[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	if c.valid != nil {
		c.valid[i>>6] &^= 1 << (uint(i) & 63)
		if v.kind != KindNull {
			c.valid[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Ints returns the payload of a column whose rows are all non-null ints,
// read-only, and reports false for any other column (nulls, another kind,
// mixed kinds).
func (c *Column) Ints() ([]int64, bool) {
	if c.mixed || c.valid != nil || c.kind != KindInt {
		return nil, false
	}
	return c.ints[:c.n:c.n], true
}

// Floats is Ints for a column whose rows are all non-null floats.
func (c *Column) Floats() ([]float64, bool) {
	if c.mixed || c.valid != nil || c.kind != KindFloat {
		return nil, false
	}
	return c.floats[:c.n:c.n], true
}

// Strings is Ints for a column whose rows are all non-null strings.
func (c *Column) Strings() ([]string, bool) {
	if c.mixed || c.valid != nil || c.kind != KindString {
		return nil, false
	}
	return c.strs[:c.n:c.n], true
}

// keyEqual reports whether row i is canonically equal to v —
// c.Value(i).KeyEqual(v) — reading an int or string payload without nulls
// straight from its slice.
func (c *Column) keyEqual(i int, v Value) bool {
	if !c.mixed && c.valid == nil {
		switch c.kind {
		case KindInt:
			vi, ok := v.canonInt()
			return ok && vi == c.ints[i]
		case KindString:
			return v.kind == KindString && v.s == c.strs[i]
		}
	}
	return c.Value(i).KeyEqual(v)
}

// hashInto folds row i's canonical encoding into h, exactly as
// Value.hashInto would for the reconstructed Value, reading an int payload
// without nulls straight from its slice.
func (c *Column) hashInto(i int, h uint64) uint64 {
	if !c.mixed && c.valid == nil && c.kind == KindInt {
		return hashUint64((h^'i')*fnvPrime64, uint64(c.ints[i]))
	}
	return c.Value(i).hashInto(h)
}
