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
//     and bucket chains preserve build-side insertion order, so hash joins
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
// A fetch step builds only what the plan reads, and a run allocates
// little beyond its answer:
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
//   - Every working buffer — step output blocks and weights, enumeration
//     tables, slab and visit list, selection vectors, join pairs, the
//     hash join's bucket index and the joined environments — is the run's
//     pooled scratch (scratch.go), emptied where taken. Only the answer
//     (Result.Rel, its value arena, Result.Weights) is allocated per run;
//     TestPooledScratchIsolation and TestPoisonedScratchLeavesAnswersAlone
//     check that no answer shares memory with a scratch.
//
// The golden digests of TestExecutorMatchesStringKeyReference (randomized
// and edge-shape corpora) pin every answer byte for byte.
package plan

import (
	"context"
	"fmt"
	"math"
	"slices"

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

// executeFetchBlocks runs ξF into sc, from no atom fetched: it applies the
// chase steps in order against the access-schema indices at each step's
// level, and returns sc.atoms. Once a step truncates on the budget, every later step yields
// an empty block over its schema without calling the fetcher — what
// applyStepBlocks would build with every level cut to nothing — so each
// atom ends on its final schema.
func executeFetchBlocks(ctx context.Context, p *Bounded, lay *planLayout, o ExecOpts, sc *runScratch) ([]*blockAtom, Stats, error) {
	n := len(p.Chase.Leaf.Q.Atoms)
	sc.atoms = slices.Grow(sc.atoms[:0], n)[:n]
	clear(sc.atoms)
	var stats Stats
	for si := range p.Chase.Steps {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		sl := &lay.steps[si]
		if stats.Truncated {
			sc.atoms[sl.atom] = sc.stepOut(si, sl.schema)
			continue
		}
		s := &p.Chase.Steps[si]
		k := s.K
		if !s.Pinned && p.Ks != nil {
			k = p.Ks[si]
		}
		if err := applyStepBlocks(ctx, sc, sl, s, si, k, o, &stats); err != nil {
			return nil, Stats{}, err
		}
	}
	return sc.atoms, stats, nil
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
// are the rows ext[gi].rows of its source block ext[gi].src; fill
// (len(sl.route)) is updated in place from them before each visit. A visit
// returning false aborts the enumeration (cooperative cancellation).
func forEachEnumBlock(blk *relation.Block, weights []int, ext []extGroup, sl *stepLayout, fill []relation.Value, visit func(ri, w int) bool) {
	var walkExt func(gi, ri, w int) bool
	walkExt = func(gi, ri, w int) bool {
		if gi == len(sl.extGroups) {
			return visit(ri, w)
		}
		src, cols := ext[gi].src, sl.extSrcCols[gi]
		for _, row := range ext[gi].rows {
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
func applyStepBlocks(ctx context.Context, sc *runScratch, sl *stepLayout, s *chase.Step, si, k int, o ExecOpts, stats *Stats) error {
	ai := sl.atom
	cur := sc.atoms[ai]

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
	ext := sc.extGroups(len(sl.extGroups))
	for gi := range ext {
		ba := sc.atoms[sl.extSrcAtom[gi]]
		if ba == nil {
			return fmt.Errorf("plan: step %d reads atom %d before it was fetched", si, sl.extSrcAtom[gi])
		}
		g, cols := &ext[gi], sl.extSrcCols[gi]
		g.src = ba.block
		for ri := 0; ri < g.src.Rows(); ri++ {
			_, added := g.distinct.Insert(g.src.HashCols(ri, cols), func(p int) bool {
				return g.src.ColsKeyEqual(int(g.rows[p]), cols, g.src, ri, cols)
			})
			if added {
				g.rows = append(g.rows, int32(ri))
			}
		}
	}

	// 1. Enumerate once. The distinct X-values are stored back to back in
	// slab, in first-seen order; index finds a value's position there.
	width := len(sl.route)
	sc.fill, sc.x = slices.Grow(sc.fill[:0], width)[:width], slices.Grow(sc.x[:0], width)[:width]
	fill, x := sc.fill, sc.x
	sc.index.Reset()
	slab, visits := sc.slab[:0], sc.visits[:0]
	var curBlk *relation.Block
	var curW []int
	if cur != nil {
		curBlk, curW = cur.block, cur.weights
	}
	visited := 0
	forEachEnumBlock(curBlk, curW, ext, sl, fill, func(ri, w int) bool {
		if visited++; visited%cancelStride == 0 && ctx.Err() != nil {
			return false
		}
		assembleXBlock(sl, fill, curBlk, ri, x)
		xi, added := sc.index.Insert(x.Hash(), func(p int) bool {
			return x.KeyEqual(slab[p*width : (p+1)*width])
		})
		if added {
			slab = append(slab, x...)
		}
		visits = append(visits, stepVisit{x: int32(xi), ri: int32(ri), w: w})
		return true
	})
	sc.slab, sc.visits = slab, visits
	xs := slices.Grow(sc.xs[:0], sc.index.Len())[:sc.index.Len()]
	sc.xs = xs
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
	out := sc.stepOut(si, sl.schema)
	out.weights = slices.Grow(out.weights, total)
	if len(emits) > 0 {
		first := emits[0]
		for p := range sl.fills {
			f := &sl.fills[p]
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
		for p := range sl.fills {
			f := &sl.fills[p]
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
	sc.atoms[ai] = out
	return nil
}

// activeJoin is a join predicate relaxed at tolerance tol, or enforced
// exactly when exact.
type activeJoin struct {
	j     *joinSel
	tol   float64
	exact bool
}

// evaluateColumnar is ξE, the one evaluator, over blocks that carry their
// final schemas: constant selections produce surviving index lists, joins
// hash block rows directly and gather matched pairs column-wise, and the
// final projection is the only place rows are materialised. Atoms join in
// query order; each join applies the predicates whose later side is the
// arriving atom, and emits matches in environment-row order. Its working
// memory is sc's; only the Result is allocated.
func evaluateColumnar(ctx context.Context, p *Bounded, lay *planLayout, atoms []*blockAtom, sc *runScratch) (*Result, error) {
	q := p.Chase.Leaf.Q
	ev := lay.eval

	// env is the joined environment so far; envW its per-row weights. env
	// may alias an atom's fetched block (read-only) until the first join
	// replaces it with one of sc's environment buffers.
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
		sel := sc.sel[:0]
		selAll := true
		for _, cs := range ev.constSels[ai] {
			r := p.Res[cs.res]
			if math.IsInf(r, 1) {
				continue
			}
			k := query.CompileConst(cs.pred, cs.dist, r)
			sel = k.Select(blk.Col(cs.col), sel, selAll)
			selAll = false
		}
		sc.sel = sel
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
			next := sc.nextEnv(env, blk.Width())
			for j := 0; j < blk.Width(); j++ {
				next.block.Col(j).AppendIndexes(blk.Col(j), sel, 0)
			}
			next.block.AddRows(len(sel))
			for _, ri := range sel {
				next.w = append(next.w, ws[ri])
			}
			env, envW = &next.block, next.w
			continue
		}

		// Classify connecting join predicates. A tolerance of +inf means the
		// attribute was fetched with unbounded resolution: relaxation cannot
		// meaningfully widen such a join (the accuracy bound is already 0),
		// so it is enforced exactly — which also keeps the join from
		// degenerating into a cross product.
		exactEq, relaxed := sc.exactEq[:0], sc.relaxed[:0]
		for _, ji := range ev.connecting[ai] {
			j := &ev.joins[ji]
			tol := (p.Res[j.lRes] + p.Res[j.rRes]) / 2
			bothNew := j.lAtom == ai && j.rAtom == ai
			if j.pred.Op == query.OpEq && (tol == 0 || math.IsInf(tol, 1)) && !bothNew {
				exactEq = append(exactEq, j)
			} else {
				relaxed = append(relaxed, activeJoin{j: j, tol: tol, exact: math.IsInf(tol, 1)})
			}
		}
		sc.exactEq, sc.relaxed = exactEq, relaxed

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
		// emission order, then gather them column-wise into the
		// environment buffer env is not.
		next := sc.nextEnv(env, ev.envOffset[ai]+blk.Width())
		eIdx, aIdx, joinedW := sc.eIdx[:0], sc.aIdx[:0], next.w
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
			atomKeyIdx := slices.Grow(sc.atomKey[:0], len(exactEq))[:len(exactEq)]
			envKeyIdx := slices.Grow(sc.envKey[:0], len(exactEq))[:len(exactEq)]
			sc.atomKey, sc.envKey = atomKeyIdx, envKeyIdx
			for i, j := range exactEq {
				if j.lAtom == ai {
					atomKeyIdx[i] = j.lCol
					envKeyIdx[i] = ev.envOffset[j.rAtom] + j.rCol
				} else {
					atomKeyIdx[i] = j.rCol
					envKeyIdx[i] = ev.envOffset[j.lAtom] + j.lCol
				}
			}
			ht := &sc.join
			ht.reset()
			for fi := 0; fi < nSel; fi++ {
				ri := selRow(fi)
				ht.add(blk.HashCols(ri, atomKeyIdx), int32(ri))
			}
			for ei := 0; ei < env.Rows(); ei++ {
				for e := ht.first(env.HashCols(ei, envKeyIdx)); e >= 0; e = ht.next[e] {
					if ri := int(ht.rows[e]); env.ColsKeyEqual(ei, envKeyIdx, blk, ri, atomKeyIdx) {
						match(ei, ri)
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
		sc.eIdx, sc.aIdx, next.w = eIdx, aIdx, joinedW

		// Gather phase: one AppendIndexes per column builds the new
		// environment without materialising any row.
		prevWidth := ev.envOffset[ai]
		for j := 0; j < prevWidth; j++ {
			next.block.Col(j).AppendIndexes(env.Col(j), eIdx, 0)
		}
		for j := 0; j < blk.Width(); j++ {
			next.block.Col(prevWidth+j).AppendIndexes(blk.Col(j), aIdx, 0)
		}
		next.block.AddRows(len(eIdx))
		env, envW = &next.block, next.w
	}

	// Residual join predicates within the final environment.
	for _, ji := range ev.residual {
		j := &ev.joins[ji]
		tol := (p.Res[j.lRes] + p.Res[j.rRes]) / 2
		li := ev.envOffset[j.lAtom] + j.lCol
		ri := ev.envOffset[j.rAtom] + j.rCol
		kept := sc.eIdx[:0]
		for i := 0; i < env.Rows(); i++ {
			ok := false
			if math.IsInf(tol, 1) {
				ok = j.pred.Holds(env.Value(i, li), env.Value(i, ri))
			} else {
				ok = j.pred.RelaxedHolds(j.lDist, env.Value(i, li), env.Value(i, ri), tol)
			}
			if ok {
				kept = append(kept, int32(i))
			}
		}
		sc.eIdx = kept
		if len(kept) == env.Rows() {
			continue
		}
		next := sc.nextEnv(env, env.Width())
		for j := 0; j < env.Width(); j++ {
			next.block.Col(j).AppendIndexes(env.Col(j), kept, 0)
		}
		next.block.AddRows(len(kept))
		for _, i := range kept {
			next.w = append(next.w, envW[i])
		}
		env, envW = &next.block, next.w
	}

	// Project and materialise — the single row-building pass of the whole
	// run, over one shared value arena: the answer is the only memory a
	// run allocates, because it is the only memory that outlives it.
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
