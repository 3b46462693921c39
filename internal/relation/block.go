// Block: a fixed-width batch of rows stored column-wise.
//
// Blocks are the unit the columnar execution path works in: a ladder keeps
// every group's items as row ranges of one block; the K-D tree construction
// reads a row range; the executor gathers the fetched levels' rows of it
// column-at-a-time, evaluates predicates and join
// keys over the flat columns, and only materialises Tuples again at the
// answer boundary. Row hashing and key equality over blocks fold exactly
// the same canonical encoding as Tuple.Hash / Value.KeyEqual, so
// block-keyed hash joins key rows as Tuple.Key strings do.
package relation

import "sync"

// Block is a batch of rows of fixed width (arity), stored as one Column per
// attribute. The zero Block has width 0; call NewBlock, or Reset to give it
// a width.
type Block struct {
	cols []Column
	rows int
}

// NewBlock returns an empty block of the given width.
func NewBlock(width int) *Block {
	return &Block{cols: make([]Column, width)}
}

// Reset empties the block and sets its width, keeping its columns' memory
// (Column.Reset) for the rows appended next: a reset block fills exactly as
// NewBlock(width) would.
func (b *Block) Reset(width int) {
	if cap(b.cols) < width {
		b.cols = append(b.cols[:cap(b.cols)], make([]Column, width-cap(b.cols))...)
	}
	b.cols = b.cols[:width]
	for j := range b.cols {
		b.cols[j].Reset()
	}
	b.rows = 0
}

// RetainedBytes returns the bytes of column memory the block keeps across
// a Reset: every payload slice and validity bitmap at its capacity.
func (b *Block) RetainedBytes() int {
	n, cols := 0, b.cols[:cap(b.cols)]
	for j := range cols {
		n += cols[j].retainedBytes()
	}
	return n
}

// Width returns the number of columns.
func (b *Block) Width() int { return len(b.cols) }

// Rows returns the number of rows.
func (b *Block) Rows() int { return b.rows }

// Col returns column j. The pointer aliases the block's storage; appending
// through it without going through the Block desynchronises the row count.
func (b *Block) Col(j int) *Column { return &b.cols[j] }

// AppendTuple appends one row. The tuple's arity must equal the block
// width.
func (b *Block) AppendTuple(t Tuple) {
	if len(t) != len(b.cols) {
		panic("relation: block width mismatch")
	}
	for j := range b.cols {
		b.cols[j].Append(t[j])
	}
	b.rows++
}

// AppendRow appends row i of src, which must have the same width.
func (b *Block) AppendRow(src *Block, i int) {
	if len(src.cols) != len(b.cols) {
		panic("relation: block width mismatch")
	}
	for j := range b.cols {
		b.cols[j].Append(src.cols[j].Value(i))
	}
	b.rows++
}

// AppendBlockRange appends rows [lo, hi) of src column-wise; src must have
// the same width, and may be b itself.
func (b *Block) AppendBlockRange(src *Block, lo, hi int) {
	if len(src.cols) != len(b.cols) {
		panic("relation: block width mismatch")
	}
	if lo >= hi {
		return
	}
	for j := range b.cols {
		b.cols[j].AppendRange(&src.cols[j], lo, hi)
	}
	b.rows += hi - lo
}

// AddRows records n rows appended column-wise through Col: callers that
// bulk-append to every column directly (AppendRange/AppendRepeat/
// AppendIndexes) must follow up with AddRows(n) to keep the row count in
// step. It panics if any column's length disagrees with the new count —
// catching a column that was skipped or double-appended at the call site
// instead of corrupting downstream reads.
func (b *Block) AddRows(n int) {
	b.rows += n
	for j := range b.cols {
		if b.cols[j].Len() != b.rows {
			panic("relation: column length out of step with block rows")
		}
	}
}

// Value returns the value at row i, column j.
func (b *Block) Value(i, j int) Value { return b.cols[j].Value(i) }

// AppendRowTo appends row i's values to dst and returns the extended
// slice, so callers can materialise rows into a shared []Value arena.
func (b *Block) AppendRowTo(dst Tuple, i int) Tuple {
	for j := range b.cols {
		dst = append(dst, b.cols[j].Value(i))
	}
	return dst
}

// Tuple materialises row i as a freshly allocated Tuple.
func (b *Block) Tuple(i int) Tuple {
	return b.AppendRowTo(make(Tuple, 0, len(b.cols)), i)
}

// Tuples materialises every row, backed by one shared []Value arena (one
// allocation for all rows' values plus one for the headers).
func (b *Block) Tuples() []Tuple {
	if b.rows == 0 {
		return nil
	}
	arena := make(Tuple, 0, b.rows*len(b.cols))
	out := make([]Tuple, b.rows)
	for i := 0; i < b.rows; i++ {
		start := len(arena)
		arena = b.AppendRowTo(arena, i)
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// BlockOfTuples builds a block of the given width from rows; every tuple
// must have arity width.
func BlockOfTuples(width int, rows []Tuple) *Block {
	b := NewBlock(width)
	for _, t := range rows {
		b.AppendTuple(t)
	}
	return b
}

// FillBlock returns a block of the given width and rows whose row r holds
// at(r, c) in column c, filled on up to `workers` goroutines (at must be
// safe to call concurrently for distinct rows). The columns are allocated
// at their exact size, in the kinds of row 0, and filled with Column.Set;
// a column that refuses a value — a null, or a kind other than row 0's — is
// then rebuilt in row order with Append, whose validity and mixed fallbacks
// store any rows exactly. Either way the block holds what appending the
// rows one by one would.
func FillBlock(width, rows int, at func(r, c int) Value, workers int) *Block {
	b := NewBlock(width)
	if rows == 0 {
		return b
	}
	for c := range b.cols {
		b.cols[c] = MakeColumn(at(0, c).kind, rows)
	}
	workers = max(1, min(workers, rows/minFillChunk))
	bad := make([][]bool, workers) // bad[w][c]: worker w's rows refused c
	var wg sync.WaitGroup
	for w := range bad {
		bad[w] = make([]bool, width)
		lo, hi := rows*w/workers, rows*(w+1)/workers
		fill := func() {
			for r := lo; r < hi; r++ {
				for c := range b.cols {
					if !bad[w][c] && !b.cols[c].Set(r, at(r, c)) {
						bad[w][c] = true
					}
				}
			}
		}
		if w == workers-1 {
			fill()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	wg.Wait()
	for c := range b.cols {
		refused := false
		for w := range bad {
			refused = refused || bad[w][c]
		}
		if !refused {
			continue
		}
		var col Column
		col.Reserve(b.cols[c].kind, rows)
		for r := 0; r < rows; r++ {
			col.Append(at(r, c))
		}
		b.cols[c] = col
	}
	b.rows = rows
	return b
}

// minFillChunk is the fewest rows FillBlock hands one goroutine: below it
// the hand-off costs more than the copying it spreads.
const minFillChunk = 1 << 14

// HashRow returns the FNV-1a hash of row i's canonical encoding — exactly
// the value Tuple.Hash returns for the materialised row, so block-keyed
// tables key rows as Tuple.Key strings do.
func (b *Block) HashRow(i int) uint64 {
	h := uint64(fnvOffset64)
	for j := range b.cols {
		h = b.cols[j].hashInto(i, h)
		h = (h ^ 0x1f) * fnvPrime64
	}
	return h
}

// HashRows sets hs[i] to HashRow(lo+i) for every i < len(hs), folding
// column by column: a column of non-null ints, floats or strings is read
// straight from its payload, any other through Value.
func (b *Block) HashRows(lo int, hs []uint64) {
	for i := range hs {
		hs[i] = fnvOffset64
	}
	hi := lo + len(hs)
	for j := range b.cols {
		c := &b.cols[j]
		if ints, ok := c.Ints(); ok {
			for i, x := range ints[lo:hi] {
				hs[i] = (hashUint64((hs[i]^'i')*fnvPrime64, uint64(x)) ^ 0x1f) * fnvPrime64
			}
		} else if floats, ok := c.Floats(); ok {
			for i, f := range floats[lo:hi] {
				hs[i] = (Float(f).hashInto(hs[i]) ^ 0x1f) * fnvPrime64
			}
		} else if strs, ok := c.Strings(); ok {
			for i, s := range strs[lo:hi] {
				h := (hs[i] ^ 's') * fnvPrime64
				for k := 0; k < len(s); k++ {
					h = (h ^ uint64(s[k])) * fnvPrime64
				}
				hs[i] = (h ^ 0x1f) * fnvPrime64
			}
		} else {
			for i := range hs {
				hs[i] = (c.Value(lo+i).hashInto(hs[i]) ^ 0x1f) * fnvPrime64
			}
		}
	}
}

// HashCols returns the hash of the projection of row i onto cols, equal to
// Tuple.Hash of the projected row.
func (b *Block) HashCols(i int, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, j := range cols {
		h = b.cols[j].hashInto(i, h)
		h = (h ^ 0x1f) * fnvPrime64
	}
	return h
}

// ColsKeyEqual reports whether the projection of b's row i onto cols and
// o's row k onto ocols are canonically equal component-wise (Value.KeyEqual
// per position). The projections must have equal length.
func (b *Block) ColsKeyEqual(i int, cols []int, o *Block, k int, ocols []int) bool {
	for x, j := range cols {
		if !b.cols[j].keyEqual(i, o.cols[ocols[x]].Value(k)) {
			return false
		}
	}
	return true
}

// RowKeyEqual reports whether row i and o's row k, which must have b's
// width, are canonically equal (Value.KeyEqual per column) — what HashRow
// hashes alike.
func (b *Block) RowKeyEqual(i int, o *Block, k int) bool {
	for j := range b.cols {
		if !b.cols[j].keyEqual(i, o.cols[j].Value(k)) {
			return false
		}
	}
	return true
}

// RowKeyEqualTuple reports whether row i is canonically equal to t
// (Value.KeyEqual per component), i.e. whether the materialised row and t
// have the same Tuple.Key string.
func (b *Block) RowKeyEqualTuple(i int, t Tuple) bool {
	if len(t) != len(b.cols) {
		return false
	}
	for j := range b.cols {
		if !b.cols[j].keyEqual(i, t[j]) {
			return false
		}
	}
	return true
}
