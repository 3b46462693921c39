// The executor (see ExecuteOpts).
//
// Fetched data stays columnar end to end: fetch steps gather the fetched
// levels (access.LevelBlock: selections of the ladder's columnar item store)
// into per-atom output blocks one column at a time, predicates and hash-join
// keys are evaluated block-at-a-time over the flat typed columns, and rows
// are materialised exactly once, at the answer boundary.
//
// What an answer is, and what it costs against the budget, is pinned by
// construction rather than by a second executor:
//
//   - Each fetch step charges its distinct X-values in first-seen
//     enumeration order, one batch per step, so Stats.Accessed and
//     Stats.Truncated do not depend on how the batch was resolved (in
//     process or across the cluster).
//   - Block row hashing folds the same canonical encoding as Tuple.Hash,
//     and bucket lists preserve build-side insertion order, so hash joins
//     emit matches in environment-row order, build rows in filtered order.
//   - A constant selection compiles once per call into a query.ConstKernel
//     that tests the column's typed payload (Ints, Floats, Strings) in one
//     loop, per row exactly as RelaxedHolds: the same comparison, 0 <= tol
//     where the predicate holds, otherwise the same distance expression.
//     Columns with nulls or mixed kinds, and constants of another kind,
//     take RelaxedHolds row by row; so do join and residual predicates,
//     on Values reconstructed (allocation-free) from the columns.
//   - A run truncated on the budget still completes every atom: the steps
//     after the truncating one contribute empty blocks over their
//     precompiled schemas, so the one evaluator serves every run.
//
// A fetch step builds only what the plan reads and allocates per step, not
// per distinct key:
//
//   - Its schema carries only the columns a predicate, a join, an output
//     or a later step's X reads (layout.go), so unread Y columns are never
//     gathered, unread X columns never broadcast, and the evaluator's join
//     gathers copy narrower environments.
//   - An external group's distinct valuations are the indexes of their
//     first rows in the source block, and the distinct X-values sit back
//     to back in one Value slab. One relation.ProbeTable each — int32
//     positions that key values as Tuple.Key strings do — finds them in
//     first-seen order, so the enumeration allocates no Tuple and no map
//     entry per key.
//
// The golden digests of TestExecutorMatchesStringKeyReference (randomized
// and edge-shape corpora) pin every answer byte for byte.
package plan

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chase"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// blockAtom is the data fetched for one atom as a column-wise block with
// per-row count weights. schema is the precompiled schema of the atom's
// last applied step — the layout's object itself, so after a run it is
// lay.finalSchema of the atom.
type blockAtom struct {
	schema  *relation.Schema
	block   *relation.Block
	weights []int
}

// executeFetchBlocks runs ξF: it applies the chase steps in order against
// the access-schema indices at each step's level. Once a step truncates on
// the budget, every later step yields an empty block over its schema
// without calling the fetcher — what applyStepBlocks would build with
// every level cut to nothing — so each atom ends on its final schema.
func executeFetchBlocks(ctx context.Context, p *Bounded, lay *planLayout, o ExecOpts) ([]*blockAtom, *Stats, error) {
	stats := &Stats{}
	atoms := make([]*blockAtom, len(p.Chase.Query.Atoms))
	for si := range p.Chase.Steps {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sl := &lay.steps[si]
		if stats.Truncated {
			atoms[sl.atom] = &blockAtom{schema: sl.schema, block: relation.NewBlock(sl.schema.Arity())}
			continue
		}
		s := &p.Chase.Steps[si]
		k := s.K
		if !s.Pinned && p.Ks != nil {
			k = p.Ks[si]
		}
		if err := applyStepBlocks(ctx, atoms, sl, s, si, k, o, stats); err != nil {
			return nil, nil, err
		}
	}
	return atoms, stats, nil
}

// assembleXBlock writes the step's ladder-order X tuple for enumeration row
// ri of blk into dst (len(sl.route)); ri < 0 means the virtual row of a
// first fetch, which has no own columns. fill holds the current external
// valuation by X position.
func assembleXBlock(sl *stepLayout, fill []relation.Value, blk *relation.Block, ri int, dst relation.Tuple) {
	for xi, r := range sl.route {
		switch r {
		case xOwn:
			dst[xi] = blk.Value(ri, sl.ownCol[xi])
		case xConst:
			dst[xi] = sl.consts[xi]
		default:
			dst[xi] = fill[xi]
		}
	}
}

// forEachEnumBlock enumerates a step's fetch enumeration — existing rows
// of blk (or one virtual row when blk is nil) × the cross product of
// external valuations — in deterministic order, calling visit with the
// current row index (-1 when virtual) and weight. Group gi's valuations
// are the rows extRows[gi] of its source block extBlk[gi]; fill
// (len(sl.route)) is updated in place from them before each visit. A visit
// returning false aborts the enumeration (cooperative cancellation).
func forEachEnumBlock(blk *relation.Block, weights []int, extBlk []*relation.Block, extRows [][]int32, sl *stepLayout, fill []relation.Value, visit func(ri, w int) bool) {
	var walkExt func(gi, ri, w int) bool
	walkExt = func(gi, ri, w int) bool {
		if gi == len(sl.extGroups) {
			return visit(ri, w)
		}
		src, cols := extBlk[gi], sl.extSrcCols[gi]
		for _, row := range extRows[gi] {
			for i, xi := range sl.extGroups[gi] {
				fill[xi] = src.Value(int(row), cols[i])
			}
			if !walkExt(gi+1, ri, w) {
				return false
			}
		}
		return true
	}
	if blk == nil {
		walkExt(0, -1, 1)
		return
	}
	for ri := 0; ri < blk.Rows(); ri++ {
		if !walkExt(0, ri, weights[ri]) {
			return
		}
	}
}

// colFill says where one output column of a fetch step gets its values for
// each enumeration visit: broadcast from the prefix row, broadcast from the
// assembled X tuple, or bulk-appended from the fetched level's Y column
// (Y wins where X and Y share a column).
type colFill struct {
	prefixCol int
	xPos      int
	yCol      int
}

func buildColFills(sl *stepLayout, arity int) []colFill {
	fills := make([]colFill, arity)
	for p := range fills {
		fills[p] = colFill{prefixCol: -1, xPos: -1, yCol: -1}
		if p < sl.prefixArity {
			fills[p].prefixCol = p
		}
	}
	for xi, pos := range sl.outX {
		if pos >= 0 {
			fills[pos] = colFill{prefixCol: -1, xPos: xi, yCol: -1}
		}
	}
	for yi, pos := range sl.outY {
		if pos >= 0 {
			fills[pos] = colFill{prefixCol: -1, xPos: -1, yCol: yi}
		}
	}
	return fills
}

// stepVisit is one visit of a fetch step's enumeration: the index of its
// X-value in the step's first-seen list, and the enumeration row (-1 when
// virtual) and weight it extends.
type stepVisit struct {
	x, ri int32
	w     int
}

// maxVisitsHint caps the visit list a fetch step reserves up front; a
// larger enumeration grows it by appending.
const maxVisitsHint = 1 << 20

// applyStepBlocks runs one fetch operation, extending (or creating) the
// atom's fetched block:
//
//  1. one enumeration pass assembles each visit's X, files new X-values in
//     first-seen order, and records the visit against its X;
//  2. one batch call through o.Fetcher resolves the distinct X-values;
//  3. the batch is budget-accounted sequentially in first-seen order,
//     truncated as a level prefix view where the budget runs out (every
//     later X-value gets nothing);
//  4. the output block is built one column at a time from the recorded
//     visits — the fetched level's Y columns gathered from the ladder's
//     item store and the prefix/X values broadcast — so no per-sample row
//     tuple is allocated.
//
// ctx is consulted every cancelStride enumeration visits and before the
// batch fetch.
func applyStepBlocks(ctx context.Context, atoms []*blockAtom, sl *stepLayout, s *chase.Step, si, k int, o ExecOpts, stats *Stats) error {
	ai := sl.atom
	cur := atoms[ai]

	// One span per fetch step (a handful per leaf, never per row). The
	// batch's distinct X-values (xs) and the full-level rows it returned
	// before budget accounting (samples) are set once it resolves; the
	// rest is filled on the way out so truncation and the access delta are
	// the step's own.
	fs := obs.SpanFrom(ctx).Child("fetch_step")
	if fs != nil {
		fs.SetInt("step", int64(si))
		fs.SetInt("level", int64(k))
		ctx = obs.ContextWithSpan(ctx, fs)
		before := stats.Accessed
		defer func() {
			fs.SetInt("accessed", int64(stats.Accessed-before))
			fs.SetBool("truncated", stats.Truncated)
			fs.End()
		}()
	}

	// Find the distinct joint valuations of each external group: the first
	// source row of each, in row order.
	extBlk := make([]*relation.Block, len(sl.extGroups))
	extRows := make([][]int32, len(sl.extGroups))
	for gi := range sl.extGroups {
		ba := atoms[sl.extSrcAtom[gi]]
		if ba == nil {
			return fmt.Errorf("plan: step %d reads atom %d before it was fetched", si, sl.extSrcAtom[gi])
		}
		src, cols := ba.block, sl.extSrcCols[gi]
		var distinct relation.ProbeTable
		var rows []int32
		for ri := 0; ri < src.Rows(); ri++ {
			_, added := distinct.Insert(src.HashCols(ri, cols), func(p int) bool {
				return src.ColsKeyEqual(int(rows[p]), cols, src, ri, cols)
			})
			if added {
				rows = append(rows, int32(ri))
			}
		}
		extBlk[gi], extRows[gi] = src, rows
	}

	// 1. Enumerate once. The distinct X-values are stored back to back in
	// slab, in first-seen order; index finds a value's position there.
	width := len(sl.route)
	fill := make([]relation.Value, width)
	scratch := make(relation.Tuple, width)
	var index relation.ProbeTable
	var slab []relation.Value
	var curBlk *relation.Block
	var curW []int
	nVisits := 1 // every row (or the virtual one) × each joint valuation
	if cur != nil {
		curBlk, curW = cur.block, cur.weights
		nVisits = curBlk.Rows()
	}
	for _, rows := range extRows {
		nVisits = min(nVisits*len(rows), maxVisitsHint)
	}
	visits := make([]stepVisit, 0, nVisits)
	visited := 0
	forEachEnumBlock(curBlk, curW, extBlk, extRows, sl, fill, func(ri, w int) bool {
		if visited++; visited%cancelStride == 0 && ctx.Err() != nil {
			return false
		}
		assembleXBlock(sl, fill, curBlk, ri, scratch)
		x, added := index.Insert(scratch.Hash(), func(p int) bool {
			return scratch.KeyEqual(slab[p*width : (p+1)*width])
		})
		if added {
			slab = append(slab, scratch...)
		}
		visits = append(visits, stepVisit{x: int32(x), ri: int32(ri), w: w})
		return true
	})
	xs := make([]relation.Tuple, index.Len())
	for i := range xs {
		xs[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	// The last check before the batch does real index work (in process, or
	// across the cluster).
	if err := ctx.Err(); err != nil {
		return err
	}

	// 2. Resolve every distinct X-value with one batch of full level views.
	lvls, err := o.Fetcher.FetchBatchBlocks(ctx, s.Ladder, xs, k)
	if err != nil {
		return err
	}
	if fs != nil {
		samples := 0
		for _, lvl := range lvls {
			if lvl != nil {
				samples += lvl.Rows()
			}
		}
		fs.SetInt("xs", int64(len(xs)))
		fs.SetInt("samples", int64(samples))
	}

	// 3. Budget backstop, charged in first-seen order: take what fits of
	// the level that crosses the budget, then fetch nothing more.
	for i, lvl := range lvls {
		if stats.Truncated {
			lvls[i] = nil
			continue
		}
		n := 0
		if lvl != nil {
			n = lvl.Rows()
		}
		if stats.Accessed+n > o.Budget {
			n = max(o.Budget-stats.Accessed, 0)
			lvls[i] = lvl.Prefix(n)
			stats.Truncated = true
		}
		stats.Accessed += n
	}

	// 4. Build the output block column-wise from the visits that fetched
	// rows, with their total known: reserve each column's full capacity
	// once, then per emitted level gather its rows from the ladder's item
	// columns and broadcast its X-value and prefix columns.
	emits := visits[:0]
	total := 0
	for _, v := range visits {
		if lvl := lvls[v.x]; lvl != nil && lvl.Rows() > 0 {
			emits = append(emits, v)
			total += lvl.Rows()
		}
	}
	out := &blockAtom{
		schema:  sl.schema,
		block:   relation.NewBlock(sl.schema.Arity()),
		weights: make([]int, 0, total),
	}
	fills := buildColFills(sl, sl.schema.Arity())
	if len(emits) > 0 {
		first := emits[0]
		for p := range fills {
			f := &fills[p]
			col := out.block.Col(p)
			switch {
			case f.yCol >= 0:
				src := lvls[first.x].ItemCol(f.yCol)
				if !src.Mixed() {
					col.Reserve(src.Kind(), total)
				}
			case f.xPos >= 0:
				col.Reserve(xs[first.x][f.xPos].Kind(), total)
			default:
				col.Reserve(curBlk.Value(int(first.ri), f.prefixCol).Kind(), total)
			}
		}
	}
	for _, e := range emits {
		lvl, key := lvls[e.x], xs[e.x]
		n := lvl.Rows()
		base, offs := lvl.Offsets()
		for p := range fills {
			f := &fills[p]
			col := out.block.Col(p)
			switch {
			case f.yCol >= 0:
				col.AppendIndexes(lvl.ItemCol(f.yCol), offs, base)
			case f.xPos >= 0:
				col.AppendRepeat(key[f.xPos], n)
			default:
				col.AppendRepeat(curBlk.Value(int(e.ri), f.prefixCol), n)
			}
		}
		out.block.AddRows(n)
		for _, c := range lvl.Counts() {
			out.weights = append(out.weights, e.w*int(c))
		}
	}
	atoms[ai] = out
	return nil
}

// evaluateColumnar is ξE, the one evaluator, over blocks that carry their
// final schemas: constant selections produce surviving index lists, joins
// hash block rows directly and gather matched pairs column-wise, and the
// final projection is the only place rows are materialised. Atoms join in
// query order; each join applies the predicates whose later side is the
// arriving atom, and emits matches in environment-row order.
func evaluateColumnar(ctx context.Context, p *Bounded, lay *planLayout, atoms []*blockAtom) (*Result, error) {
	q := p.Chase.Query
	ev := lay.eval
	resOf := func(ai int, attr string) float64 {
		return p.Chase.ResolutionOf(ai, attr, p.Ks)
	}

	// env is the joined environment so far; envW its per-row weights. env
	// may alias an atom's fetched block (read-only) until the first join
	// replaces it with a freshly gathered block.
	var env *relation.Block
	var envW []int

	for ai := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ba := atoms[ai]
		blk := ba.block
		ws := ba.weights

		// Relaxed constant selection: tolerances are fixed per call, so each
		// selection compiles once into a typed kernel that filters the
		// column's payload, and unboundedly approximate columns (+inf
		// resolution) cannot be filtered at all. The first kernel selects
		// from every row, each later one narrows the surviving index list.
		// selAll means every row survives and sel is unused.
		var sel []int32
		selAll := true
		for _, cs := range ev.constSels[ai] {
			r := resOf(ai, cs.pred.Left.Attr)
			if math.IsInf(r, 1) {
				continue
			}
			k := query.CompileConst(cs.pred, cs.dist, r)
			sel = k.Select(blk.Col(cs.col), sel, selAll)
			selAll = false
		}
		if !selAll && len(sel) == blk.Rows() {
			// Every row survived: drop the index list so downstream
			// stages take the zero-copy all-rows path.
			selAll, sel = true, nil
		}
		nSel := len(sel)
		if selAll {
			nSel = blk.Rows()
		}
		// selRow maps a filtered position to its block row.
		selRow := func(fi int) int {
			if selAll {
				return fi
			}
			return int(sel[fi])
		}

		if ai == 0 {
			if selAll {
				// Nothing filtered: serve the fetched block directly
				// (read-only) — the common single-atom fast path.
				env, envW = blk, ws
				continue
			}
			env = relation.NewBlock(blk.Width())
			for j := 0; j < blk.Width(); j++ {
				env.Col(j).AppendIndexes(blk.Col(j), sel, 0)
			}
			env.AddRows(len(sel))
			envW = make([]int, len(sel))
			for i, ri := range sel {
				envW[i] = ws[ri]
			}
			continue
		}

		// Classify connecting join predicates. A tolerance of +inf means the
		// attribute was fetched with unbounded resolution: relaxation cannot
		// meaningfully widen such a join (the accuracy bound is already 0),
		// so it is enforced exactly — which also keeps the join from
		// degenerating into a cross product.
		type activeJoin struct {
			j     *joinSel
			tol   float64
			exact bool
		}
		var exactEq []*joinSel
		var relaxed []activeJoin
		for _, ji := range ev.connecting[ai] {
			j := &ev.joins[ji]
			tol := (resOf(j.lAtom, j.pred.Left.Attr) + resOf(j.rAtom, j.pred.Right.Attr)) / 2
			bothNew := j.lAtom == ai && j.rAtom == ai
			if j.pred.Op == query.OpEq && (tol == 0 || math.IsInf(tol, 1)) && !bothNew {
				exactEq = append(exactEq, j)
			} else {
				relaxed = append(relaxed, activeJoin{j: j, tol: tol, exact: math.IsInf(tol, 1)})
			}
		}

		valOf := func(side int, j *joinSel, ei, ri int) relation.Value {
			a, c := j.lAtom, j.lCol
			if side == 1 {
				a, c = j.rAtom, j.rCol
			}
			if a == ai {
				return blk.Value(ri, c)
			}
			return env.Value(ei, ev.envOffset[a]+c)
		}

		// Match phase: collect surviving (env row, atom row) pairs in
		// emission order, then gather them column-wise. Seed
		// capacity at the environment's row count — joins in α-bounded plans
		// rarely shrink the environment by much more than they grow it.
		capHint := env.Rows()
		eIdx := make([]int32, 0, capHint)
		aIdx := make([]int32, 0, capHint)
		joinedW := make([]int, 0, capHint)
		match := func(ei, ri int) {
			for _, aj := range relaxed {
				lv := valOf(0, aj.j, ei, ri)
				rv := valOf(1, aj.j, ei, ri)
				if aj.exact {
					if !aj.j.pred.Holds(lv, rv) {
						return
					}
					continue
				}
				if !aj.j.pred.RelaxedHolds(aj.j.lDist, lv, rv, aj.tol) {
					return
				}
			}
			eIdx = append(eIdx, int32(ei))
			aIdx = append(aIdx, int32(ri))
			joinedW = append(joinedW, envW[ei]*ws[ri])
		}

		if len(exactEq) > 0 {
			// Hash join on the exact-equality keys, block-at-a-time: build
			// rows are bucketed by the hash of their key projection (the
			// same canonical fold as Tuple.Hash) in filtered order; probes
			// verify per candidate with canonical key equality, so matches
			// come out in environment-row order, build rows in filtered order.
			atomKeyIdx := make([]int, len(exactEq))
			envKeyIdx := make([]int, len(exactEq))
			for i, j := range exactEq {
				if j.lAtom == ai {
					atomKeyIdx[i] = j.lCol
					envKeyIdx[i] = ev.envOffset[j.rAtom] + j.rCol
				} else {
					atomKeyIdx[i] = j.rCol
					envKeyIdx[i] = ev.envOffset[j.lAtom] + j.lCol
				}
			}
			ht := make(map[uint64][]int32, nSel)
			for fi := 0; fi < nSel; fi++ {
				ri := selRow(fi)
				h := blk.HashCols(ri, atomKeyIdx)
				ht[h] = append(ht[h], int32(ri))
			}
			for ei := 0; ei < env.Rows(); ei++ {
				h := env.HashCols(ei, envKeyIdx)
				for _, ri := range ht[h] {
					if env.ColsKeyEqual(ei, envKeyIdx, blk, int(ri), atomKeyIdx) {
						match(ei, int(ri))
					}
				}
			}
		} else {
			if env.Rows()*nSel > query.MaxIntermediate {
				return nil, fmt.Errorf("plan: relaxed join of %d x %d rows exceeds limit", env.Rows(), nSel)
			}
			for ei := 0; ei < env.Rows(); ei++ {
				for fi := 0; fi < nSel; fi++ {
					match(ei, selRow(fi))
				}
			}
		}

		// Gather phase: one AppendIndexes per column builds the new
		// environment without materialising any row.
		prevWidth := ev.envOffset[ai]
		next := relation.NewBlock(prevWidth + blk.Width())
		for j := 0; j < prevWidth; j++ {
			next.Col(j).AppendIndexes(env.Col(j), eIdx, 0)
		}
		for j := 0; j < blk.Width(); j++ {
			next.Col(prevWidth+j).AppendIndexes(blk.Col(j), aIdx, 0)
		}
		next.AddRows(len(eIdx))
		env, envW = next, joinedW
	}

	// Residual join predicates within the final environment.
	for _, ji := range ev.residual {
		j := &ev.joins[ji]
		tol := (resOf(j.lAtom, j.pred.Left.Attr) + resOf(j.rAtom, j.pred.Right.Attr)) / 2
		li := ev.envOffset[j.lAtom] + j.lCol
		ri := ev.envOffset[j.rAtom] + j.rCol
		var kept []int32
		var keptW []int
		for i := 0; i < env.Rows(); i++ {
			ok := false
			if math.IsInf(tol, 1) {
				ok = j.pred.Holds(env.Value(i, li), env.Value(i, ri))
			} else {
				ok = j.pred.RelaxedHolds(j.lDist, env.Value(i, li), env.Value(i, ri), tol)
			}
			if ok {
				kept = append(kept, int32(i))
				keptW = append(keptW, envW[i])
			}
		}
		if len(kept) == env.Rows() {
			continue
		}
		next := relation.NewBlock(env.Width())
		for j := 0; j < env.Width(); j++ {
			next.Col(j).AppendIndexes(env.Col(j), kept, 0)
		}
		next.AddRows(len(kept))
		env, envW = next, keptW
	}

	// Project and materialise — the single row-building pass of the whole
	// run, over one shared value arena.
	res := &Result{Rel: relation.NewRelation(ev.outSchema)}
	n := env.Rows()
	if n == 0 {
		return res, nil
	}
	width := len(ev.outIdx)
	arena := make(relation.Tuple, 0, n*width)
	res.Rel.Tuples = make([]relation.Tuple, 0, n)
	res.Weights = append(res.Weights, envW...)
	for i := 0; i < n; i++ {
		start := len(arena)
		for _, ci := range ev.outIdx {
			arena = append(arena, env.Value(i, ci))
		}
		res.Rel.Tuples = append(res.Rel.Tuples, arena[start:len(arena):len(arena)])
	}
	return res, nil
}
