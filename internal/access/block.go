package access

import (
	"slices"

	"repro/internal/relation"
)

// This file holds a ladder's two row stores. The item store keeps every
// group's items — the raw Y-projections of its base tuples, duplicates
// kept, one row each — in typed Y columns, a group's items being one row
// range. The level arena keeps the views of all groups' levels: typed Y
// columns plus a count column, each group's levels stored contiguously,
// level after level, so that a level is a row range. A LevelBlock records
// that range; a group holds its levels' records in one slice and FetchBlock
// hands out pointers into it, so a fetch allocates nothing and the heap
// holds a few large columns instead of a block per (group, level) or an
// object per item. The executor (internal/plan) appends fetched ranges
// column-at-a-time, or serves a single level zero-copy through a
// Column.View. Representatives are actual items, so a level row is a copy
// of an item row, and the snapshot encodes it as an item index (see
// GroupSnapshot).

// rowStore is the placement discipline both stores follow: rows live in one
// block of typed columns, a group's rows are one range of it, and rows are
// never rewritten. A group whose rows are replaced has its new rows placed
// after the others and its old ones counted dead, and a compaction into
// fresh columns keeps dead rows from outnumbering live ones, so the copying
// is amortised over the replacements that left the dead rows behind. Views
// handed out earlier therefore stay valid.
type rowStore struct {
	y    *relation.Block
	dead int // rows no group covers any more
}

// live returns the number of rows some group covers.
func (s *rowStore) live() int { return s.y.Rows() - s.dead }

// crowded reports whether placing n more rows must compact first: the dead
// rows would otherwise be at least as many as the live ones.
func (s *rowStore) crowded(n int) bool { return s.dead > 0 && s.dead >= s.live()+n }

// reserve grows the columns' capacity for n more rows.
func (s *rowStore) reserve(n int) {
	for c := 0; c < s.y.Width(); c++ {
		s.y.Col(c).Reserve(s.y.Col(c).Kind(), n)
	}
}

// compact moves the live rows into fresh columns with room for extra more
// and drops the dead ones. ranges calls move once per live range [lo, hi),
// in the order the ranges are to be laid out, and move returns the range's
// new first row. compact returns the old block, which stays readable.
func (s *rowStore) compact(extra int, ranges func(move func(lo, hi int) int)) *relation.Block {
	old := s.y
	y := relation.NewBlock(old.Width())
	for c := 0; c < y.Width(); c++ {
		if src := old.Col(c); !src.Mixed() {
			y.Col(c).Reserve(src.Kind(), s.live()+extra)
		}
	}
	ranges(func(lo, hi int) int {
		first := y.Rows()
		y.AppendBlockRange(old, lo, hi)
		return first
	})
	s.y, s.dead = y, 0
	return old
}

// rowRange is rows [first, first+rows) of a row store.
type rowRange struct{ first, rows int }

// end returns one past the range's last row.
func (r rowRange) end() int { return r.first + r.rows }

// levelArena holds one ladder's level rows column-wise. Row r is one
// representative: its Y-tuple across y's columns and the number of base
// tuples it represents in counts[r]. Rows are placed as rowStore says.
type levelArena struct {
	rowStore
	counts []int
}

// LevelBlock is one fetch level in columnar form: rows [First, First+Rows)
// of an arena, row i of the level being row First+i of every Y column, with
// Counts()[i] the number of base tuples it represents. Blocks are shared
// read-only views.
type LevelBlock struct {
	arena       *levelArena
	first, rows int
}

// NewLevelBlock returns a standalone level over y's rows, with counts[i]
// the represented-tuple count of row i (len(counts) must be y.Rows()) — the
// form a level takes when it arrives from another process.
func NewLevelBlock(y *relation.Block, counts []int) *LevelBlock {
	return &LevelBlock{arena: &levelArena{rowStore: rowStore{y: y}, counts: counts}, rows: y.Rows()}
}

// Rows returns the number of samples in the level.
func (b *LevelBlock) Rows() int { return b.rows }

// First returns the row of Col(j) holding the level's first sample.
func (b *LevelBlock) First() int { return b.first }

// Col returns the column holding Y attribute j of the level's rows, at rows
// [First, First+Rows). It is shared storage: read-only.
func (b *LevelBlock) Col(j int) *relation.Column { return b.arena.y.Col(j) }

// Counts returns the per-sample represented-tuple counts, read-only.
func (b *LevelBlock) Counts() []int {
	end := b.first + b.rows
	return b.arena.counts[b.first:end:end]
}

// Y returns the level's Y-tuples as a read-only block of column views. It
// allocates the block, so the fetch path uses Col and First instead.
func (b *LevelBlock) Y() *relation.Block {
	y := b.arena.y
	if b.first == 0 && b.rows == y.Rows() {
		return y
	}
	v := relation.NewBlock(y.Width())
	for j := 0; j < y.Width(); j++ {
		col := y.Col(j).View(b.first, b.first+b.rows)
		v.SetColView(j, &col)
	}
	v.AddRows(b.rows)
	return v
}

// Prefix returns a read-only view of the first n samples — what a fetch
// keeps of a level under a budget that runs out inside it. A nil block (a
// missing group) stays nil.
func (b *LevelBlock) Prefix(n int) *LevelBlock {
	if b == nil || n >= b.rows {
		return b
	}
	return &LevelBlock{arena: b.arena, first: b.first, rows: n}
}

// levelRow is one representative on its way into an arena: the item row of
// the ladder's item store it copies, and the number of base tuples it
// represents.
type levelRow struct {
	item  int
	count int
}

// place points the group's levels, whose first rows are offsets into the
// group's own rows, at the arena rows from base on.
func (g *ladderGroup) place(a *levelArena, base int) {
	for k := range g.levels {
		g.levels[k].arena = a
		g.levels[k].first += base
	}
}

// packArenas gives every ladder with jobs a fresh arena holding exactly its
// jobs' rows (callers pass all of a ladder's groups) and places each group's
// levels in it. A prefix sum over the jobs gives every group a disjoint
// range of the arena, and relation.FillBlock copies the item rows the
// ranges name into exact-size columns.
func packArenas(jobs []groupBuild, workers int) {
	type pack struct {
		rows   int
		items  []int32 // per arena row: the item row it copies
		counts []int
	}
	packs := make(map[*Ladder]*pack)
	var order []*Ladder
	base := make([]int, len(jobs))
	for i, j := range jobs {
		p := packs[j.l]
		if p == nil {
			p = &pack{}
			packs[j.l] = p
			order = append(order, j.l)
		}
		base[i] = p.rows
		p.rows += len(j.rows)
	}
	for _, l := range order {
		p := packs[l]
		p.items, p.counts = make([]int32, p.rows), make([]int, p.rows)
	}
	parallelFor(len(jobs), workers, func(i int) {
		j := jobs[i]
		p := packs[j.l]
		for r, row := range j.rows {
			p.items[base[i]+r], p.counts[base[i]+r] = int32(row.item), row.count
		}
		j.g.place(j.l.arena, base[i])
	})
	for _, l := range order {
		p, items := packs[l], l.items.y
		l.arena.y = relation.FillBlock(items.Width(), p.rows, func(r, c int) relation.Value {
			return items.Value(int(p.items[r]), c)
		}, workers)
		l.arena.counts, l.arena.dead = p.counts, 0
	}
}

// placeRebuilt places the rows of l's groups rebuilt by maintenance (l's
// jobs among jobs) in l's arena, whose rows of those groups were already
// counted dead: after the arena's rows, compacting first when the arena is
// crowded (repack).
func (l *Ladder) placeRebuilt(jobs []groupBuild) {
	a := l.arena
	n := 0
	for _, j := range jobs {
		if j.l == l {
			n += len(j.rows)
		}
	}
	if a.crowded(n) {
		l.repack(n)
	} else {
		a.reserve(n)
		a.counts = slices.Grow(a.counts, n)
	}
	for _, j := range jobs {
		if j.l != l {
			continue
		}
		base := len(a.counts)
		for _, r := range j.rows {
			a.y.AppendRow(l.items.y, r.item)
			a.counts = append(a.counts, r.count)
		}
		j.g.place(a, base)
	}
}

// repack compacts the arena with room for extra more rows, group by group.
// Groups rebuilt but not yet placed (their levels point at no arena) have
// no live rows to move.
func (l *Ladder) repack(extra int) {
	a := l.arena
	old := a.counts
	counts := make([]int, 0, a.live()+extra)
	a.compact(extra, func(move func(lo, hi int) int) {
		l.store.rangeGroups(func(g *ladderGroup) bool {
			if g.levels[0].arena != a {
				return true
			}
			lo, hi := g.span()
			shift := move(lo, hi) - lo
			for k := range g.levels {
				g.levels[k].first += shift
			}
			counts = append(counts, old[lo:hi]...)
			return true
		})
	})
	a.counts = counts
}

// span returns the arena rows [lo, hi) holding the group's levels; empty
// for a group not yet placed.
func (g *ladderGroup) span() (lo, hi int) {
	if len(g.levels) == 0 {
		return 0, 0
	}
	last := g.levels[len(g.levels)-1]
	return g.levels[0].first, last.first + last.rows
}

// fetchBlock returns the group's level-k view. k is clamped to [0, exact
// level], matching kdtree.Tree.Level.
func (g *ladderGroup) fetchBlock(k int) *LevelBlock {
	return &g.levels[max(0, min(k, len(g.levels)-1))]
}

// FetchBlock returns the level-k samples of the group of x in columnar
// form; nil when the group does not exist. The block is a shared read-only
// view.
func (s *ShardedLadder) FetchBlock(x relation.Tuple, k int) *LevelBlock {
	g, ok := s.group(x)
	if !ok {
		return nil
	}
	return g.fetchBlock(k)
}

// minParallelBatch is the batch length below which FetchBatchBlocks looks
// every X-value up inline: a small batch costs less than the goroutine
// fan-out that would spread it.
const minParallelBatch = 64

// FetchBatchBlocks is the scatter-gather fetch: it resolves the level-k
// blocks for every X-value of xs, fanning the lookups out across the
// owning shards on up to `workers` goroutines, and gathers the results in
// input order (out[i] corresponds to xs[i]; nil for missing groups).
// Results are the shared read-only views FetchBlock returns. workers ≤ 1,
// a single shard, or a batch shorter than minParallelBatch all degrade to
// an inline loop with identical results.
func (s *ShardedLadder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	out := make([]*LevelBlock, len(xs))
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 || len(s.shards) == 1 || len(xs) < minParallelBatch {
		for i, x := range xs {
			out[i] = s.FetchBlock(x, k)
		}
		return out
	}
	// Scatter: partition the input indices by owning shard.
	byShard := make([][]int, len(s.shards))
	for i, x := range xs {
		si := s.shardOf(x)
		byShard[si] = append(byShard[si], i)
	}
	// Gather: one worker per non-empty shard (bounded), each writing only
	// its own output slots, so the result is independent of scheduling.
	var busy []int
	for si := range byShard {
		if len(byShard[si]) > 0 {
			busy = append(busy, si)
		}
	}
	parallelFor(len(busy), workers, func(bi int) {
		si := busy[bi]
		groups := s.shards[si].groups
		for _, i := range byShard[si] {
			if g, ok := groups.Get(xs[i]); ok {
				out[i] = g.fetchBlock(k)
			}
		}
	})
	return out
}

// FetchBlock returns the level-k samples for one X-value tuple in columnar
// form; nil when the X-value is not indexed. The block is a shared
// read-only view: the same pointer on every call until maintenance rebuilds
// the group.
func (l *Ladder) FetchBlock(x relation.Tuple, k int) *LevelBlock {
	return l.store.FetchBlock(x, k)
}

// FetchBatchBlocks resolves many X-values at once in columnar form,
// scatter-gathering across the store's shards; out[i] corresponds to xs[i].
func (l *Ladder) FetchBatchBlocks(xs []relation.Tuple, k, workers int) []*LevelBlock {
	return l.store.FetchBatchBlocks(xs, k, workers)
}
