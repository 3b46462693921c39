package access

import (
	"slices"

	"repro/internal/relation"
)

// This file holds a ladder's two row stores. The item store keeps every
// group's items — the raw Y-projections of its base tuples, duplicates
// kept, one row each — in typed Y columns, a group's items being one row
// range. The level arena keeps the views of all groups' levels as
// selections over the item store: representatives are actual items, so a
// level row is a pair of int32s, the offset of its item within the group's
// items and the number of base tuples it represents. Each group's levels
// are stored contiguously, level after level, so that a level is a row
// range of the arena. The group directory (directory.go) records each
// level's range as two int32s, and FetchBlock builds from them a LevelBlock
// value — a pointer to the ladder's two stores, the group's first item row
// and the level's arena range — so a fetch allocates nothing and the heap
// holds a few large columns instead of a block per (group, level), objects
// per group or one per item. The executor (internal/plan) gathers a fetched level's
// values from the item columns one column at a time
// (Column.AppendIndexes), and the snapshot encodes a level row as the very
// pair it is (see GroupSnapshot).

// crowded reports whether a store holding live rows some group covers and
// dead rows none does must compact before placing n more: the dead rows
// would otherwise be at least as many as the live ones.
func crowded(live, dead, n int) bool { return dead > 0 && dead >= live+n }

// rowStore is the placement discipline both stores follow, and the item
// store itself: rows live in one block of typed columns, a group's rows are
// one range of it, and rows are never rewritten. A group whose rows are
// replaced has its new rows placed after the others and its old ones
// counted dead, and a compaction into fresh columns keeps dead rows from
// outnumbering live ones (crowded), so the copying is amortised over the
// replacements that left the dead rows behind. Views handed out earlier
// therefore stay valid.
type rowStore struct {
	y    *relation.Block
	dead int // rows no group covers any more
}

// live returns the number of rows some group covers.
func (s *rowStore) live() int { return s.y.Rows() - s.dead }

// reserve grows the columns' capacity for n more rows.
func (s *rowStore) reserve(n int) {
	for c := 0; c < s.y.Width(); c++ {
		s.y.Col(c).Reserve(s.y.Col(c).Kind(), n)
	}
}

// compact moves the live rows into fresh columns with room for extra more
// and drops the dead ones. ranges calls move once per live range [lo, hi),
// in the order the ranges are to be laid out, and move returns the range's
// new first row; s.y is already the fresh block while ranges runs. compact
// returns the old block, which stays readable.
func (s *rowStore) compact(extra int, ranges func(move func(lo, hi int) int)) *relation.Block {
	old := s.y
	y := relation.NewBlock(old.Width())
	for c := 0; c < y.Width(); c++ {
		if src := old.Col(c); !src.Mixed() {
			y.Col(c).Reserve(src.Kind(), s.live()+extra)
		}
	}
	s.y, s.dead = y, 0
	ranges(func(lo, hi int) int {
		first := y.Rows()
		y.AppendBlockRange(old, lo, hi)
		return first
	})
	return old
}

// rowRange is rows [first, first+rows) of a row store.
type rowRange struct{ first, rows int }

// end returns one past the range's last row.
func (r rowRange) end() int { return r.first + r.rows }

// levelArena holds one ladder's level rows as two int32 columns. Row r is
// one representative: the item at offset item[r] of its group's item range,
// and the number of base tuples it represents in count[r]. The offsets are
// group-relative, so compacting the item store moves no arena row. Rows are
// placed as rowStore says.
type levelArena struct {
	item, count []int32
	dead        int // rows no group covers any more
}

// live returns the number of rows some group covers.
func (a *levelArena) live() int { return len(a.item) - a.dead }

// levelStore is what level views read: a ladder's item store and level
// arena.
type levelStore struct {
	items rowStore   // every group's item rows
	arena levelArena // every group's level rows
}

// LevelBlock is one fetch level in columnar form: a selection of a group's
// items. Row i of the level is item row Base+Offsets()[i] of the item
// columns, with Counts()[i] the number of base tuples it represents; the
// offsets and counts are rows [first, first+rows) of the store's arena. A
// LevelBlock is a 24-byte value built on each fetch, reading the ladder's
// storage read-only, so it is valid until the ladder is next maintained.
type LevelBlock struct {
	st                *levelStore
	base, first, rows int32 // the group's first item row, and the arena rows
}

// NewLevelBlock returns a standalone level holding y's rows in order, with
// counts[i] the represented-tuple count of row i (len(counts) must be
// y.Rows()) — the form a level takes when it arrives from another process:
// the identity selection over y.
func NewLevelBlock(y *relation.Block, counts []int32) *LevelBlock {
	item := make([]int32, y.Rows())
	for i := range item {
		item[i] = int32(i)
	}
	st := &levelStore{items: rowStore{y: y}, arena: levelArena{item: item, count: counts}}
	return &LevelBlock{st: st, rows: int32(y.Rows())}
}

// Rows returns the number of samples in the level.
func (b *LevelBlock) Rows() int { return int(b.rows) }

// ItemCol returns the item column holding Y attribute j; the level's rows
// are the rows of it that Offsets names. It is shared storage: read-only.
func (b *LevelBlock) ItemCol(j int) *relation.Column { return b.st.items.y.Col(j) }

// Offsets returns the level's selection of ItemCol's rows: row i of the
// level is row base+offs[i]. offs is shared storage: read-only.
func (b *LevelBlock) Offsets() (base int, offs []int32) {
	end := b.first + b.rows
	return int(b.base), b.st.arena.item[b.first:end:end]
}

// Counts returns the per-sample represented-tuple counts, read-only.
func (b *LevelBlock) Counts() []int32 {
	end := b.first + b.rows
	return b.st.arena.count[b.first:end:end]
}

// Y returns the level's Y-tuples as a fresh block gathered from the item
// columns. It allocates, so the fetch path gathers through ItemCol and
// Offsets into its own output instead.
func (b *LevelBlock) Y() *relation.Block {
	items := b.st.items.y
	y := relation.NewBlock(items.Width())
	base, offs := b.Offsets()
	for j := 0; j < y.Width(); j++ {
		y.Col(j).AppendIndexes(items.Col(j), offs, base)
	}
	y.AddRows(b.Rows())
	return y
}

// Prefix returns a read-only view of the first n samples — what a fetch
// keeps of a level under a budget that runs out inside it. A nil block (a
// missing group) stays nil.
func (b *LevelBlock) Prefix(n int) *LevelBlock {
	if b == nil || n >= b.Rows() {
		return b
	}
	p := *b
	p.rows = int32(n)
	return &p
}

// packArenas gives every ladder with jobs a fresh arena and fresh level
// entries holding exactly its jobs' (callers pass all of a ladder's
// groups), in job order, and places each job's levels there.
func packArenas(jobs []groupBuild) {
	type size struct{ rows, levels int }
	sizes := make(map[*Ladder]size)
	for _, j := range jobs {
		n := sizes[j.l]
		sizes[j.l] = size{n.rows + j.rows.rows, n.levels + j.levels.rows}
	}
	for l, n := range sizes {
		l.arena = levelArena{item: make([]int32, 0, n.rows), count: make([]int32, 0, n.rows)}
		d := &l.dir
		d.spans, d.res, d.deadLevels = make([]int32, 0, 2*n.levels), make([]float64, 0, n.levels*len(l.yAttrs)), 0
	}
	for i := range jobs {
		jobs[i].place()
	}
}

// placeRebuilt places the levels of l's groups rebuilt by maintenance (l's
// jobs among jobs), whose old rows and level entries were already counted
// dead: after the arena's rows and the directory's level entries,
// compacting either first when it is crowded (repack, packLevels).
func (l *Ladder) placeRebuilt(jobs []groupBuild) {
	a, d := &l.arena, &l.dir
	rows, levels := 0, 0
	for _, j := range jobs {
		if j.l == l {
			rows, levels = rows+j.rows.rows, levels+j.levels.rows
		}
	}
	if crowded(a.live(), a.dead, rows) {
		l.repack(rows)
	} else {
		a.item, a.count = slices.Grow(a.item, rows), slices.Grow(a.count, rows)
	}
	if crowded(d.liveLevels(), d.deadLevels, levels) {
		d.packLevels(levels, len(l.yAttrs))
	}
	for i := range jobs {
		if jobs[i].l == l {
			jobs[i].place()
		}
	}
}

// repack compacts the arena into fresh columns with room for extra more
// rows, group by group, shifting each group's level entries with its rows.
// Groups rebuilt but not yet placed have no levels, so no live rows to
// move.
func (l *Ladder) repack(extra int) {
	a, d := &l.arena, &l.dir
	item, count := make([]int32, 0, a.live()+extra), make([]int32, 0, a.live()+extra)
	for s := range d.recs {
		if !d.live(s) {
			continue
		}
		lo, hi := d.span(s)
		shift := int32(len(item) - lo)
		r := d.recs[s]
		for e := r.lvlFirst; e < r.lvlFirst+r.lvlCount; e++ {
			d.spans[2*e] += shift
		}
		item, count = append(item, a.item[lo:hi]...), append(count, a.count[lo:hi]...)
	}
	a.item, a.count, a.dead = item, count, 0
}

// view returns slot s's level-k view. k is clamped to [0, exact level].
func (l *Ladder) view(s, k int) LevelBlock {
	first, rows := l.dir.level(s, k)
	return LevelBlock{st: &l.levelStore, base: l.dir.recs[s].itemFirst, first: int32(first), rows: int32(rows)}
}

// FetchBlock returns the level-k samples for one X-value tuple in columnar
// form, and false when the X-value is not indexed. The block is built from
// the directory's entries on each call, without allocating, and reads the
// ladder's storage: equal blocks on every call until the ladder is next
// maintained.
func (l *Ladder) FetchBlock(x relation.Tuple, k int) (LevelBlock, bool) {
	s, ok := l.dir.lookup(x)
	if !ok {
		return LevelBlock{}, false
	}
	return l.view(s, k), true
}

// FetchBatchBlocks resolves the level-k blocks for every X-value of xs, in
// input order (out[i] corresponds to xs[i]; nil for missing groups), with
// one directory lookup each on the calling goroutine. The blocks are
// FetchBlock's, held in one backing slice, so a batch allocates twice
// whatever its length. workers is ignored.
func (l *Ladder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	out := make([]*LevelBlock, len(xs))
	views := make([]LevelBlock, len(xs))
	for i, x := range xs {
		if s, ok := l.dir.lookup(x); ok {
			views[i] = l.view(s, k)
			out[i] = &views[i]
		}
	}
	return out
}
