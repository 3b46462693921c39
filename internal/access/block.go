package access

import (
	"slices"
	"sync/atomic"

	"repro/internal/relation"
)

// This file holds a ladder's level views. Every ladder keeps the views of all
// its groups in one levelArena: typed Y columns plus a count column, each
// group's levels stored contiguously, level after level, so that a level is
// a row range. A LevelBlock records that range; a group holds its levels'
// records in one slice and FetchBlock hands out pointers into it, so a fetch
// allocates nothing and the heap holds a few large columns instead of a
// block per (group, level). The executor (internal/plan) appends fetched
// ranges column-at-a-time, or serves a single level zero-copy through a
// Column.View. Representatives are actual items, so the snapshot encodes a
// level row as an item index (see GroupSnapshot).

// levelArena holds one ladder's level rows column-wise. Row r is one
// representative: its Y-tuple across y's columns and the number of base
// tuples it represents in counts[r]. Rows are never rewritten: a rebuilt
// group's new rows are placed after the others and its old ones left dead,
// and a repack into fresh columns keeps dead rows from outnumbering live
// ones (placeRebuilt). Views handed out earlier therefore stay valid.
type levelArena struct {
	y      *relation.Block
	counts []int
	dead   int // rows no group's levels cover any more
}

// live returns the number of rows some group's levels cover.
func (a *levelArena) live() int { return len(a.counts) - a.dead }

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
	return &LevelBlock{arena: &levelArena{y: y, counts: counts}, rows: y.Rows()}
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

// levelRow is one representative on its way into an arena: a group item's
// Y-tuple and the number of base tuples it represents.
type levelRow struct {
	y     relation.Tuple
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
// range of exact-size columns, and the ranges are filled in parallel with
// Column.Set. A column whose rows are not all non-null values of its first
// row's kind — nulls, mixed kinds — is then refilled in row order with
// Column.Append, whose validity and mixed fallbacks store any rows exactly.
func packArenas(jobs []groupBuild, workers int) {
	type pack struct {
		a     *levelArena
		rows  int
		first relation.Tuple // the first row, whose kinds the columns start with
		bad   []atomic.Bool  // per column: some row did not fit
	}
	packs := make(map[*Ladder]*pack)
	var order []*Ladder
	base := make([]int, len(jobs))
	for i, j := range jobs {
		p := packs[j.l]
		if p == nil {
			p = &pack{a: j.l.arena, first: j.rows[0].y, bad: make([]atomic.Bool, len(j.l.yAttrs))}
			packs[j.l] = p
			order = append(order, j.l)
		}
		base[i] = p.rows
		p.rows += len(j.rows)
	}
	for _, l := range order {
		p := packs[l]
		p.a.y = relation.NewBlock(len(p.first))
		for c, v := range p.first {
			*p.a.y.Col(c) = relation.MakeColumn(v.Kind(), p.rows)
		}
		p.a.counts = make([]int, p.rows)
		p.a.dead = 0
	}
	parallelFor(len(jobs), workers, func(i int) {
		j := jobs[i]
		p := packs[j.l]
		for r, row := range j.rows {
			at := base[i] + r
			p.a.counts[at] = row.count
			for c, v := range row.y {
				if !p.a.y.Col(c).Set(at, v) {
					p.bad[c].Store(true)
				}
			}
		}
		j.g.place(p.a, base[i])
	})
	for _, l := range order {
		p := packs[l]
		for c := range p.bad {
			if !p.bad[c].Load() {
				continue
			}
			var col relation.Column
			col.Reserve(p.first[c].Kind(), p.rows)
			for _, j := range jobs {
				if j.l == l {
					for _, row := range j.rows {
						col.Append(row.y[c])
					}
				}
			}
			*p.a.y.Col(c) = col
		}
		p.a.y.AddRows(p.rows)
	}
}

// placeRebuilt places the rows of l's groups rebuilt by maintenance (l's
// jobs among jobs) in l's arena, whose rows of those groups were already
// counted dead. The rows are appended after the arena's rows unless that
// would leave at least as many dead rows as live ones: then the live rows
// move into fresh columns first (a repack), so dead rows never outnumber
// live ones and the copying is amortised over the rebuilds that left the
// dead rows behind. Rows are never rewritten in place, so views handed out
// earlier stay valid.
func (l *Ladder) placeRebuilt(jobs []groupBuild) {
	a := l.arena
	n := 0
	for _, j := range jobs {
		if j.l == l {
			n += len(j.rows)
		}
	}
	if a.dead > 0 && a.dead >= a.live()+n {
		l.repack(n)
	} else {
		for c := 0; c < a.y.Width(); c++ {
			a.y.Col(c).Reserve(a.y.Col(c).Kind(), n)
		}
		a.counts = slices.Grow(a.counts, n)
	}
	for _, j := range jobs {
		if j.l != l {
			continue
		}
		base := len(a.counts)
		for _, r := range j.rows {
			a.y.AppendTuple(r.y)
			a.counts = append(a.counts, r.count)
		}
		j.g.place(a, base)
	}
}

// repack moves the live rows into fresh columns with room for extra more,
// group by group, and drops the dead ones. Groups rebuilt but not yet placed
// (their levels point at no arena) have no live rows to move.
func (l *Ladder) repack(extra int) {
	old := *l.arena
	size := old.live() + extra
	y := relation.NewBlock(old.y.Width())
	for c := 0; c < y.Width(); c++ {
		if src := old.y.Col(c); !src.Mixed() {
			y.Col(c).Reserve(src.Kind(), size)
		}
	}
	counts := make([]int, 0, size)
	l.store.rangeGroups(func(g *ladderGroup) bool {
		if g.levels[0].arena != l.arena {
			return true
		}
		lo, hi := g.span()
		y.AppendBlockRange(old.y, lo, hi)
		for k := range g.levels {
			g.levels[k].first += len(counts) - lo
		}
		counts = append(counts, old.counts[lo:hi]...)
		return true
	})
	l.arena.y, l.arena.counts, l.arena.dead = y, counts, 0
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
