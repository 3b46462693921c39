// Package chase implements the revised chase of §5: it reasons about an SPC
// query's tableau under an access schema and produces a fetch-plan skeleton
// — a sequence of fetch steps, each backed by an access constraint or an
// access template — without ever touching the data.
//
// Columns of the query's atoms are partitioned into equivalence classes by
// the equality predicates (the tableau's variables); constants bind classes.
// A chase step applies a ladder R(X → Y, ·, ·) to an atom whose X classes
// are covered, marking the atom's X∪Y attributes (and the Y classes)
// covered — exactly when the step is a constraint applied to exactly
// covered inputs, approximately otherwise. The paper's budget rule is
// followed: constraints are used when the estimated tariff stays within
// B = α|D|, and k = 0 template placeholders otherwise (procedure chAT in
// the core package upgrades those levels afterwards).
package chase

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// Source says where the values of a fetch step's X attribute come from:
// a query constant, or an attribute of an atom covered by an earlier step.
type Source struct {
	IsConst bool
	Const   relation.Value
	AtomIdx int
	// Attr is the attribute's index in the base schema of atom AtomIdx.
	Attr int
}

// Step is one fetch operation fetch(X ∈ T, R, Y, ψ): apply ladder level K
// to the atom at AtomIdx, drawing X values from Sources.
type Step struct {
	AtomIdx int
	Ladder  *access.Ladder
	// K is the ladder level. Constraint steps are pinned at Ladder.MaxK();
	// template steps start at 0 and are upgraded by chAT.
	K int
	// Pinned marks constraint steps whose level chAT must not change.
	Pinned bool
	// Exact reports whether the step fetches exact values from exact
	// inputs (the chase's "exactly covered" marking).
	Exact bool
	// X holds one source per Ladder.X attribute.
	X []Source
	// Covers lists the atom attributes this step newly covers (⊆ X∪Y), as
	// indices into the atom's base schema.
	Covers []int
	// Chimeric marks a fetch that extends an already-fetched atom without
	// correlating through the atom's own columns: the executor can only
	// cross-product the new values with the existing rows, so the pairing
	// of attributes is not that of real tuples. Resolutions of chimeric
	// coverage are +inf (no accuracy can be claimed through them).
	Chimeric bool
}

// Result is a terminated chasing sequence translated into a fetch-plan
// skeleton, plus the bookkeeping the planner and executor need.
//
// Every column is addressed by (atom, attribute index into the atom's base
// schema, Leaf.Bases), and flat column tables — the tableau, the
// resolution table — by Col(atom, attr).
type Result struct {
	// Leaf is the chased query with every column bound (query.Resolve):
	// the planner, the bound and the executor read it instead of resolving
	// names.
	Leaf  *query.Resolved
	Steps []Step
	// off[atom] is where the atom's columns start in a flat column table;
	// off[len(Leaf.Q.Atoms)] is the table's length.
	off []int
	// coveredBy[atom][attr] = index of the covering step, -1 if uncovered.
	coveredBy [][]int
	// usedAttrs[atom] = attributes the evaluation plan needs, ascending.
	usedAttrs [][]int
	// AllExact reports whether every used attribute was exactly covered:
	// the query is boundedly evaluable within budget (exact answers).
	AllExact bool
}

// CoveredBy returns the index of the step covering (atom, attr), or -1.
func (r *Result) CoveredBy(atom, attr int) int { return r.coveredBy[atom][attr] }

// UsedAttrs returns the attributes of the atom that the evaluation plan
// needs (those in predicates or output), ascending. The slice is the
// result's own: read-only.
func (r *Result) UsedAttrs(atom int) []int { return r.usedAttrs[atom] }

// Col returns the position of column (atom, attr) in a flat column table
// of NumCols entries.
func (r *Result) Col(atom, attr int) int { return r.off[atom] + attr }

// NumCols returns the number of columns of the query's atoms: the length
// of a flat column table.
func (r *Result) NumCols() int { return r.off[len(r.off)-1] }

// Resolutions fills dst, a flat column table of NumCols entries, with the
// fetch resolution of every column under the level assignment ks (one
// level per step; nil means the steps' own levels), and +inf for every
// column no step covers. A covered X attribute inherits the resolution of
// its source site (constants are exact); a covered Y attribute has its
// ladder level's resolution when every X input is exact, and +inf
// otherwise; chimeric coverage is +inf. One forward pass suffices: a
// step's non-constant X sources are covered by earlier steps.
func (r *Result) Resolutions(ks []int, dst []float64) {
	dst = dst[:r.NumCols()]
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	for si := range r.Steps {
		s := &r.Steps[si]
		if s.Chimeric {
			continue
		}
		cov, off := r.coveredBy[s.AtomIdx], r.off[s.AtomIdx]
		// The ladder's per-level resolution only bounds the distance to
		// the true Y-values when the X inputs are exact: fetching a group
		// for an approximate X-value returns a (real but) unrelated
		// group, so any approximation on the inputs voids the bound.
		exactIn := true
		for _, src := range s.X {
			if !src.IsConst && dst[r.Col(src.AtomIdx, src.Attr)] != 0 {
				exactIn = false
				break
			}
		}
		if exactIn {
			res := s.Ladder.Resolution(levelOf(s, ks, si))
			for yi, y := range s.Ladder.YIdx() {
				if cov[y] == si {
					dst[off+y] = res[yi]
				}
			}
		}
		// X last: an attribute in both X and Y resolves as an X attribute.
		for xi, x := range s.Ladder.XIdx() {
			if cov[x] != si {
				continue
			}
			if src := s.X[xi]; src.IsConst {
				dst[off+x] = 0
			} else {
				dst[off+x] = dst[r.Col(src.AtomIdx, src.Attr)]
			}
		}
	}
}

func levelOf(s *Step, ks []int, si int) int {
	if s.Pinned || ks == nil {
		return s.K
	}
	return ks[si]
}

// Tariff estimates, from the access schema's metadata alone, the number of
// tuples the fetch plan accesses under level assignment ks (paper §5:
// "estimated by means of constants N ... without accessing D"). The
// estimate is an upper bound: per step, (bound on |T|) × (per-X-value fetch
// bound), with |T| capped by the ladder's group count.
func (r *Result) Tariff(ks []int) int {
	outBound := make([]int, len(r.Steps))
	total := 0
	for si := range r.Steps {
		s := &r.Steps[si]
		tb := r.tBound(s.X, s.Ladder, si, outBound)
		k := levelOf(s, ks, si)
		fetch := s.Ladder.FetchBound(k)
		cost := satMul(tb, fetch)
		outBound[si] = cost
		total = satAdd(total, cost)
	}
	return total
}

// tBound bounds the number of distinct X-valuations of a step with
// sources xs on ladder l that runs after the first n steps, whose output
// bounds are outBound. Sources covered by the same earlier step contribute
// jointly (they are correlated columns of one fetched relation);
// independent sources multiply. The ladder's group count caps everything:
// T only ranges over indexed X-values.
func (r *Result) tBound(xs []Source, l *access.Ladder, n int, outBound []int) int {
	var buf [8]int
	counted := buf[:0] // the earlier steps already counted
	bound := 1
	for _, src := range xs {
		if src.IsConst {
			continue
		}
		cs := r.CoveredBy(src.AtomIdx, src.Attr)
		if cs < 0 || cs >= n {
			// Defensive: unresolvable source, assume the cap.
			return max(1, l.NumGroups())
		}
		if slices.Contains(counted, cs) {
			continue // joint with a column already counted
		}
		counted = append(counted, cs)
		bound = satMul(bound, max(1, outBound[cs]))
	}
	if g := l.NumGroups(); g > 0 && bound > g {
		bound = g
	}
	return bound
}

// Levels returns the initial level assignment: each step's chosen K.
func (r *Result) Levels() []int {
	ks := make([]int, len(r.Steps))
	for i, s := range r.Steps {
		ks[i] = s.K
	}
	return ks
}

const satCap = math.MaxInt / 4

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}

func satAdd(a, b int) int {
	if a > satCap-b {
		return satCap
	}
	return a + b
}

// --- the chase ----------------------------------------------------------

type classInfo struct {
	state   int // 0 unmarked, 1 approx, 2 exact
	isConst bool
	cv      relation.Value
	site    Source // covering site for value production
}

const (
	stUnmarked = 0
	stApprox   = 1
	stExact    = 2
)

type chaser struct {
	q      *query.SPC
	schema *access.Schema
	budget int
	// The tableau: a union-find over the flat column ids (Result.Col);
	// classes[root] describes the class root heads.
	parent  []int
	classes []classInfo
	res     *Result
	tariff  int
	// outBound[si] bounds the tuples step si fetches at its chosen level
	// (Tariff's per-step bound, which tBound reads).
	outBound []int
}

// Chase runs the chasing sequence for an SPC query under the access schema
// with budget B = α|D|, and derives the fetch-plan skeleton (Lemma 4: under
// A ⊇ At it always terminates with every atom covered).
func Chase(q *query.SPC, as *access.Schema, src query.SchemaSource, budget int) (*Result, error) {
	leaf, err := query.Resolve(q, src)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Leaf:      leaf,
		off:       make([]int, len(q.Atoms)+1),
		coveredBy: make([][]int, len(q.Atoms)),
		usedAttrs: make([][]int, len(q.Atoms)),
	}
	for i, b := range leaf.Bases {
		res.off[i+1] = res.off[i] + b.Arity()
	}
	cover := make([]int, res.NumCols())
	for i := range cover {
		cover[i] = -1
	}
	for i := range q.Atoms {
		res.coveredBy[i] = cover[res.off[i]:res.off[i+1]:res.off[i+1]]
	}
	c := &chaser{
		q:       q,
		schema:  as,
		budget:  budget,
		parent:  make([]int, res.NumCols()),
		classes: make([]classInfo, res.NumCols()),
		res:     res,
	}
	for i := range c.parent {
		c.parent[i] = i
	}
	c.init()
	if err := c.run(); err != nil {
		return nil, err
	}
	res.AllExact = c.allExact()
	return res, nil
}

func (c *chaser) find(col int) int {
	for c.parent[col] != col {
		c.parent[col] = c.parent[c.parent[col]]
		col = c.parent[col]
	}
	return col
}

func (c *chaser) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	// Merge class info, preferring constants and stronger marks.
	ia, ib := &c.classes[ra], &c.classes[rb]
	c.parent[rb] = ra
	if ib.isConst && !ia.isConst {
		ia.isConst, ia.cv = true, ib.cv
	}
	if ib.state > ia.state {
		ia.state, ia.site = ib.state, ib.site
	}
}

// class returns the class of column (atom, attr).
func (c *chaser) class(atom, attr int) *classInfo {
	return &c.classes[c.find(c.res.Col(atom, attr))]
}

func (c *chaser) init() {
	leaf := c.res.Leaf
	// Used attributes: predicates and output.
	mark := func(b query.Binding) {
		if used := c.res.usedAttrs[b.Atom]; !slices.Contains(used, b.Index) {
			c.res.usedAttrs[b.Atom] = append(used, b.Index)
		}
	}
	for pi, p := range c.q.Preds {
		mark(leaf.Preds[pi].Left)
		if p.Join {
			mark(leaf.Preds[pi].Right)
		}
	}
	for _, b := range leaf.Output {
		mark(b)
	}
	for _, used := range c.res.usedAttrs {
		slices.Sort(used)
	}
	for i := range c.q.Atoms {
		if len(c.res.usedAttrs[i]) == 0 {
			// Pure existence atom: track its first attribute so the
			// fetch plan materialises something to cross-product with.
			c.res.usedAttrs[i] = []int{0}
		}
	}
	// Equivalence classes: equality joins unify, constants bind.
	for pi, p := range c.q.Preds {
		if pb := leaf.Preds[pi]; p.Join && p.Op == query.OpEq {
			c.union(c.res.Col(pb.Left.Atom, pb.Left.Index), c.res.Col(pb.Right.Atom, pb.Right.Index))
		}
	}
	for pi, p := range c.q.Preds {
		if l := leaf.Preds[pi].Left; !p.Join && p.Op == query.OpEq {
			ci := c.class(l.Atom, l.Index)
			ci.isConst = true
			ci.cv = p.Const
			ci.state = stExact
			ci.site = Source{IsConst: true, Const: p.Const}
		}
	}
}

// candidate is one applicable chase step under consideration: the step it
// would append — an exact constraint step (Exact, Pinned at the ladder's
// top level, affordable within the budget) or a k = 0 template
// placeholder — and how it ranks.
type candidate struct {
	Step
	tariff  int // estimated cost of this step at its chosen level
	newUsed int // uncovered used attributes it covers
	// useful counts the newly covered used attributes whose resolution can
	// actually become finite: X attributes (inherited from the source),
	// bounded-distance Y attributes, and — for constraint steps — all of
	// them. Covering a trivial-distance attribute with an approximate
	// template is worthless (its resolution stays +inf below the exact
	// level), so such coverage does not count.
	useful int
}

func (c *chaser) run() error {
	maxSteps := 4 * (len(c.q.Atoms) + 1) * (c.schema.Size() + 4)
	for iter := 0; iter < maxSteps; iter++ {
		if c.done() {
			return nil
		}
		cand := c.bestCandidate()
		if cand == nil {
			return fmt.Errorf("chase: stuck — no applicable ladder covers the remaining attributes (is At included?)")
		}
		c.apply(cand)
	}
	if !c.done() {
		return fmt.Errorf("chase: did not terminate within %d steps", maxSteps)
	}
	return nil
}

func (c *chaser) done() bool {
	for i := range c.q.Atoms {
		if !c.atomDone(i) {
			return false
		}
	}
	return true
}

func (c *chaser) allExact() bool {
	for i, used := range c.res.usedAttrs {
		for _, a := range used {
			si := c.res.coveredBy[i][a]
			if si < 0 || !c.res.Steps[si].Exact {
				return false
			}
		}
	}
	return true
}

// bestCandidate enumerates applicable (atom, ladder) pairs and picks,
// preferring affordable exact constraint steps (smallest tariff first),
// then k = 0 template placeholders (again smallest tariff).
func (c *chaser) bestCandidate() *candidate {
	var bestExact, bestApprox *candidate
	for ai := range c.q.Atoms {
		if c.atomDone(ai) {
			continue
		}
		for _, l := range c.schema.LaddersFor(c.q.Atoms[ai].Rel) {
			cand := c.tryLadder(ai, l)
			if cand == nil {
				continue
			}
			best := &bestApprox
			if cand.Exact {
				best = &bestExact
			}
			if better(cand, *best) {
				*best = cand
			}
		}
	}
	if bestExact != nil {
		return bestExact
	}
	return bestApprox
}

// better prefers candidates lexicographically by useful coverage, then new
// coverage, then lower tariff: a specific template whose X attributes carry
// exact join values beats a cheaper whole-relation fetch that covers key
// attributes at unbounded resolution.
func better(a, b *candidate) bool {
	if b == nil {
		return true
	}
	if a.useful != b.useful {
		return a.useful > b.useful
	}
	if a.newUsed != b.newUsed {
		return a.newUsed > b.newUsed
	}
	return a.tariff < b.tariff
}

func (c *chaser) atomDone(ai int) bool {
	for _, a := range c.res.usedAttrs[ai] {
		if c.res.coveredBy[ai][a] < 0 {
			return false
		}
	}
	return true
}

// tryLadder checks applicability of the ladder to the atom and builds the
// candidate step. Two variants are considered: the constraint (top level)
// when the inputs allow exact marking, and the k=0 template placeholder.
func (c *chaser) tryLadder(ai int, l *access.Ladder) *candidate {
	xIdx := l.XIdx()
	xs := make([]Source, len(xIdx))
	inputsExact := true
	for i, x := range xIdx {
		ci := c.class(ai, x)
		switch {
		case ci.isConst:
			xs[i] = Source{IsConst: true, Const: ci.cv}
		case ci.state != stUnmarked:
			xs[i] = ci.site
			if ci.state != stExact {
				inputsExact = false
			}
		default:
			return nil // X not covered yet
		}
	}
	// New coverage.
	base := c.res.Leaf.Bases[ai]
	cov, used := c.res.coveredBy[ai], c.res.usedAttrs[ai]
	var covers []int
	newUsed, usefulTemplate := 0, 0
	// add covers attr; inX says it is an X attribute, which inherits the
	// (typically exact) source resolution, while a Y attribute only
	// becomes usefully approximate when its distance is bounded.
	add := func(attr int, inX bool) {
		if cov[attr] >= 0 || slices.Contains(covers, attr) {
			return
		}
		covers = append(covers, attr)
		if slices.Contains(used, attr) {
			newUsed++
			if inX || base.Attrs[attr].Dist.Bounded() {
				usefulTemplate++
			}
		}
	}
	for _, x := range xIdx {
		add(x, true)
	}
	for _, y := range l.YIdx() {
		add(y, false)
	}
	if newUsed == 0 {
		return nil
	}
	cand := &candidate{Step: Step{AtomIdx: ai, Ladder: l, X: xs, Covers: covers}, newUsed: newUsed}

	// Correlation check: a follow-up fetch for a partially covered atom
	// must key on the atom's own covered attributes, or its rows can only
	// be cross-producted with the existing ones (chimeric pairing).
	if slices.ContainsFunc(cov, func(si int) bool { return si >= 0 }) {
		cand.Chimeric = len(xIdx) == 0 || slices.ContainsFunc(xIdx, func(x int) bool { return cov[x] < 0 })
	}
	tb := c.res.tBound(xs, l, len(c.outBound), c.outBound)
	if cand.Chimeric {
		cand.tariff = satMul(tb, l.FetchBound(0))
		return cand
	}

	// Tariff of this step at the constraint level vs the k=0 placeholder.
	constraintCost := satMul(tb, l.MaxGroupDistinct())
	if inputsExact && c.tariff+constraintCost <= c.budget {
		cand.Exact, cand.Pinned, cand.K = true, true, l.MaxK()
		cand.tariff = constraintCost
		cand.useful = newUsed // exact fetches are useful on every attribute
		return cand
	}
	cand.tariff = satMul(tb, l.FetchBound(0))
	cand.useful = usefulTemplate
	return cand
}

func (c *chaser) apply(cand *candidate) {
	si := len(c.res.Steps)
	c.res.Steps = append(c.res.Steps, cand.Step)
	c.outBound = append(c.outBound, satMul(c.res.tBound(cand.X, cand.Ladder, si, c.outBound), cand.Ladder.FetchBound(cand.K)))
	c.tariff += cand.tariff
	for _, attr := range cand.Covers {
		c.res.coveredBy[cand.AtomIdx][attr] = si
	}
	// Mark the Y classes (variable marking rule).
	state := stApprox
	if cand.Exact {
		state = stExact
	}
	for _, y := range cand.Ladder.YIdx() {
		ci := c.class(cand.AtomIdx, y)
		if ci.state < state {
			ci.state = state
			ci.site = Source{AtomIdx: cand.AtomIdx, Attr: y}
		}
	}
}
