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
	Attr    string
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
	// Covers lists the atom attributes this step newly covers (⊆ X∪Y).
	Covers []string
	// Chimeric marks a fetch that extends an already-fetched atom without
	// correlating through the atom's own columns: the executor can only
	// cross-product the new values with the existing rows, so the pairing
	// of attributes is not that of real tuples. Resolutions of chimeric
	// coverage are +inf (no accuracy can be claimed through them).
	Chimeric bool
}

// Result is a terminated chasing sequence translated into a fetch-plan
// skeleton, plus the bookkeeping the planner and executor need.
type Result struct {
	Query *query.SPC
	// Leaf is Query with every column bound (query.Resolve): the planner,
	// the bound and the executor read it instead of resolving names.
	Leaf  *query.Resolved
	Steps []Step
	// coveredBy[atom][attr] = index of the covering step.
	coveredBy []map[string]int
	// usedAttrs[atom] = attributes the evaluation plan needs.
	usedAttrs []map[string]bool
	// AllExact reports whether every used attribute was exactly covered:
	// the query is boundedly evaluable within budget (exact answers).
	AllExact bool
}

// CoveredBy returns the index of the step covering (atom, attr), or -1.
func (r *Result) CoveredBy(atom int, attr string) int {
	if s, ok := r.coveredBy[atom][attr]; ok {
		return s
	}
	return -1
}

// UsedAttrs returns the attributes of the atom that the evaluation plan
// needs (those in predicates or output), in no particular order.
func (r *Result) UsedAttrs(atom int) []string {
	out := make([]string, 0, len(r.usedAttrs[atom]))
	for a := range r.usedAttrs[atom] {
		out = append(out, a)
	}
	return out
}

// ResolutionOf returns the fetch resolution of (atom, attr) under the level
// assignment ks (one level per step): the resolution of the template that
// fetched it, or, for X attributes, the resolution propagated from the
// source site (constants are exact). Unknown attributes resolve to +inf.
func (r *Result) ResolutionOf(atom int, attr string, ks []int) float64 {
	return r.resolutionOf(atom, attr, ks, 0)
}

func (r *Result) resolutionOf(atom int, attr string, ks []int, depth int) float64 {
	if depth > len(r.Steps)+1 {
		return math.Inf(1)
	}
	si := r.CoveredBy(atom, attr)
	if si < 0 {
		return math.Inf(1)
	}
	s := &r.Steps[si]
	if s.Chimeric {
		return math.Inf(1)
	}
	for xi, x := range s.Ladder.X {
		if x != attr {
			continue
		}
		src := s.X[xi]
		if src.IsConst {
			return 0
		}
		return r.resolutionOf(src.AtomIdx, src.Attr, ks, depth+1)
	}
	// A Y attribute. The ladder's per-level resolution only bounds the
	// distance to the true Y-values when the X inputs are exact: fetching
	// a group for an approximate X-value returns a (real but) unrelated
	// group, so any approximation on the inputs voids the bound.
	for _, src := range s.X {
		if src.IsConst {
			continue
		}
		if r.resolutionOf(src.AtomIdx, src.Attr, ks, depth+1) != 0 {
			return math.Inf(1)
		}
	}
	res := s.Ladder.Resolution(levelOf(s, ks, si))
	for yi, y := range s.Ladder.Y {
		if y == attr {
			return res[yi]
		}
	}
	return math.Inf(1)
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
	perStep := map[int]bool{}
	bound := 1
	for _, src := range xs {
		if src.IsConst {
			continue
		}
		cs := r.CoveredBy(src.AtomIdx, src.Attr)
		if cs < 0 || cs >= n {
			// Defensive: unresolvable source, assume the cap.
			return maxInt(1, l.NumGroups())
		}
		if perStep[cs] {
			continue // joint with a column already counted
		}
		perStep[cs] = true
		bound = satMul(bound, maxInt(1, outBound[cs]))
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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
	q       *query.SPC
	schema  *access.Schema
	budget  int
	parent  map[query.Col]query.Col
	classes map[query.Col]*classInfo
	res     *Result
	tariff  int
}

// Chase runs the chasing sequence for an SPC query under the access schema
// with budget B = α|D|, and derives the fetch-plan skeleton (Lemma 4: under
// A ⊇ At it always terminates with every atom covered).
func Chase(q *query.SPC, as *access.Schema, src query.SchemaSource, budget int) (*Result, error) {
	leaf, err := query.Resolve(q, src)
	if err != nil {
		return nil, err
	}
	c := &chaser{
		q:       q,
		schema:  as,
		budget:  budget,
		parent:  make(map[query.Col]query.Col),
		classes: make(map[query.Col]*classInfo),
		res: &Result{
			Query:     q,
			Leaf:      leaf,
			coveredBy: make([]map[string]int, len(q.Atoms)),
			usedAttrs: make([]map[string]bool, len(q.Atoms)),
		},
	}
	for i := range q.Atoms {
		c.res.coveredBy[i] = make(map[string]int)
		c.res.usedAttrs[i] = make(map[string]bool)
	}
	c.init()
	if err := c.run(); err != nil {
		return nil, err
	}
	c.res.AllExact = c.allExact()
	return c.res, nil
}

func (c *chaser) find(col query.Col) query.Col {
	p, ok := c.parent[col]
	if !ok || p == col {
		return col
	}
	root := c.find(p)
	c.parent[col] = root
	return root
}

func (c *chaser) union(a, b query.Col) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	// Merge class info, preferring constants and stronger marks.
	ia, ib := c.info(ra), c.info(rb)
	c.parent[rb] = ra
	if ib.isConst && !ia.isConst {
		ia.isConst, ia.cv = true, ib.cv
	}
	if ib.state > ia.state {
		ia.state, ia.site = ib.state, ib.site
	}
}

func (c *chaser) info(root query.Col) *classInfo {
	ci, ok := c.classes[root]
	if !ok {
		ci = &classInfo{}
		c.classes[root] = ci
	}
	return ci
}

func (c *chaser) init() {
	leaf := c.res.Leaf
	// Used attributes: predicates and output.
	mark := func(b query.Binding) {
		c.res.usedAttrs[b.Atom][b.Attr.Name] = true
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
	for i := range c.q.Atoms {
		if len(c.res.usedAttrs[i]) == 0 {
			// Pure existence atom: track its first attribute so the
			// fetch plan materialises something to cross-product with.
			c.res.usedAttrs[i][leaf.Bases[i].Attrs[0].Name] = true
		}
	}
	// Equivalence classes: equality joins unify, constants bind.
	for _, p := range c.q.Preds {
		if p.Join && p.Op == query.OpEq {
			c.union(p.Left, p.Right)
		}
	}
	for _, p := range c.q.Preds {
		if !p.Join && p.Op == query.OpEq {
			ci := c.info(c.find(p.Left))
			ci.isConst = true
			ci.cv = p.Const
			ci.state = stExact
			ci.site = Source{IsConst: true, Const: p.Const}
		}
	}
}

// candidate is one applicable chase step under consideration.
type candidate struct {
	atom       int
	ladder     *access.Ladder
	constraint bool
	exact      bool
	xs         []Source
	covers     []string
	tariff     int // estimated cost of this step at its chosen level
	newUsed    int // uncovered used attributes it covers
	// useful counts the newly covered used attributes whose resolution can
	// actually become finite: X attributes (inherited from the source),
	// bounded-distance Y attributes, and — for constraint steps — all of
	// them. Covering a trivial-distance attribute with an approximate
	// template is worthless (its resolution stays +inf below the exact
	// level), so such coverage does not count.
	useful int
	// chimeric mirrors Step.Chimeric for the prospective step.
	chimeric bool
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
		for a := range c.res.usedAttrs[i] {
			if _, ok := c.res.coveredBy[i][a]; !ok {
				return false
			}
		}
	}
	return true
}

func (c *chaser) allExact() bool {
	for i := range c.q.Atoms {
		for a := range c.res.usedAttrs[i] {
			si, ok := c.res.coveredBy[i][a]
			if !ok || !c.res.Steps[si].Exact {
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
			if cand.constraint && cand.exact && c.tariff+cand.tariff <= c.budget {
				if better(cand, bestExact) {
					bestExact = cand
				}
			} else if !cand.constraint {
				if better(cand, bestApprox) {
					bestApprox = cand
				}
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
	for a := range c.res.usedAttrs[ai] {
		if _, ok := c.res.coveredBy[ai][a]; !ok {
			return false
		}
	}
	return true
}

// tryLadder checks applicability of the ladder to the atom and builds the
// candidate step. Two variants are considered: the constraint (top level)
// when the inputs allow exact marking, and the k=0 template placeholder.
func (c *chaser) tryLadder(ai int, l *access.Ladder) *candidate {
	alias := c.q.Atoms[ai].Name()
	xs := make([]Source, len(l.X))
	inputsExact := true
	for i, xattr := range l.X {
		ci := c.info(c.find(query.C(alias, xattr)))
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
	inX := make(map[string]bool, len(l.X))
	for _, x := range l.X {
		inX[x] = true
	}
	var covers []string
	newUsed, usefulTemplate := 0, 0
	add := func(attr string) {
		if _, done := c.res.coveredBy[ai][attr]; done {
			return
		}
		for _, seen := range covers {
			if seen == attr {
				return
			}
		}
		covers = append(covers, attr)
		if c.res.usedAttrs[ai][attr] {
			newUsed++
			// X attributes inherit the (typically exact) source
			// resolution; Y attributes only become usefully
			// approximate when their distance is bounded.
			if inX[attr] || base.Attrs[base.MustIndex(attr)].Dist.Bounded() {
				usefulTemplate++
			}
		}
	}
	for _, x := range l.X {
		add(x)
	}
	for _, y := range l.Y {
		add(y)
	}
	if newUsed == 0 {
		return nil
	}
	cand := &candidate{atom: ai, ladder: l, xs: xs, covers: covers, newUsed: newUsed}

	// Correlation check: a follow-up fetch for a partially covered atom
	// must key on the atom's own covered attributes, or its rows can only
	// be cross-producted with the existing ones (chimeric pairing).
	if len(c.res.coveredBy[ai]) > 0 {
		for _, x := range l.X {
			if _, own := c.res.coveredBy[ai][x]; !own {
				cand.chimeric = true
				break
			}
		}
		if len(l.X) == 0 {
			cand.chimeric = true
		}
	}
	if cand.chimeric {
		cand.tariff = satMul(c.stepTBound(xs, l), l.FetchBound(0))
		cand.useful = 0
		return cand
	}

	// Tariff of this step at the constraint level vs the k=0 placeholder.
	tb := c.stepTBound(xs, l)
	constraintCost := satMul(tb, l.MaxGroupDistinct())
	if inputsExact && c.tariff+constraintCost <= c.budget {
		cand.constraint = true
		cand.exact = true
		cand.tariff = constraintCost
		cand.useful = newUsed // exact fetches are useful on every attribute
		return cand
	}
	cand.constraint = false
	cand.exact = false
	cand.tariff = satMul(tb, l.FetchBound(0))
	cand.useful = usefulTemplate
	return cand
}

// stepTBound bounds |T| for a prospective step from the current plan.
func (c *chaser) stepTBound(xs []Source, l *access.Ladder) int {
	outBound := make([]int, len(c.res.Steps))
	for si := range c.res.Steps {
		s := &c.res.Steps[si]
		outBound[si] = satMul(c.res.tBound(s.X, s.Ladder, si, outBound), s.Ladder.FetchBound(s.K))
	}
	return c.res.tBound(xs, l, len(outBound), outBound)
}

func (c *chaser) apply(cand *candidate) {
	alias := c.q.Atoms[cand.atom].Name()
	k := 0
	pinned := false
	if cand.constraint {
		k = cand.ladder.MaxK()
		pinned = true
	}
	step := Step{
		AtomIdx:  cand.atom,
		Ladder:   cand.ladder,
		K:        k,
		Pinned:   pinned,
		Exact:    cand.exact,
		X:        cand.xs,
		Covers:   cand.covers,
		Chimeric: cand.chimeric,
	}
	si := len(c.res.Steps)
	c.res.Steps = append(c.res.Steps, step)
	c.tariff += cand.tariff
	for _, attr := range cand.covers {
		c.res.coveredBy[cand.atom][attr] = si
	}
	// Mark the Y classes (variable marking rule).
	state := stApprox
	if cand.exact {
		state = stExact
	}
	for _, y := range cand.ladder.Y {
		ci := c.info(c.find(query.C(alias, y)))
		if ci.state < state {
			ci.state = state
			ci.site = Source{AtomIdx: cand.atom, Attr: y}
		}
	}
}
