package plan

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file precompiles the per-step and per-plan execution layouts.
//
// Plans are immutable after generation and executed many times (the plan
// cache serves repeated queries), yet the original executor re-derived on
// every execution — per step and partly per row — which X positions come
// from the current atom relation, which are constants or external columns,
// what the extended schema looks like, and where each fetched value lands
// (name-keyed map fills, Schema.Index calls, fmt.Sprintf group keys). All
// of that is a pure function of the chase result, so it is computed once
// per plan here and the executor runs over flat int slices.
//
// The simulation addresses a column as the chase does, by (atom, base
// attribute index): per atom, which attributes a step schema carries and
// which column each one holds are slices over the base attributes.
//
// The schema evolution is simulated step by step: steps execute in order
// and each one only sees atoms built by earlier steps, so the simulated
// schemas match the runtime schemas exactly. Every step runs — after a
// budget truncation as an empty block over its schema — so every atom ends
// on its final schema, and the evaluation layout is compiled against those
// final schemas once. The precompiled relation.Schema objects are reused
// by every execution (they are immutable).
//
// A step schema carries only the columns something downstream reads
// (readColumns): the atom's predicate, join and output columns, the
// columns later steps read as external X sources, and the ladder-X
// attributes a later step on the same atom finds already fetched. The
// fetch operation fetch(X ∈ T, R, Y) of the paper reads the Y attributes a
// plan needs, so an unread Y column is never gathered and an unread X
// column never broadcast. The last rule keeps every X route what it would
// be over schemas holding every fetched attribute: a position whose
// attribute the atom already fetched stays xOwn, read from the row itself,
// rather than turning into a constant or a cross product with another
// atom's values. An atom nothing reads a column of ends with width 0; its
// rows and weights still count.

// xRoute says where one X position of a step's ladder gets its value.
type xRoute uint8

const (
	// xOwn copies from the atom's existing row (prefix).
	xOwn xRoute = iota
	// xConst uses a constant from the chase step.
	xConst
	// xExt takes the current external-group valuation.
	xExt
)

// stepLayout is the precompiled form of one fetch step.
type stepLayout struct {
	atom   int
	route  []xRoute
	ownCol []int            // xOwn: column in the incoming prefix row
	consts []relation.Value // xConst: the constant

	// External groups in first-occurrence order of their source atoms:
	// X positions per group and the source columns they project.
	extGroups  [][]int
	extSrcAtom []int
	extSrcCols [][]int

	// Output: the extended schema and, per ladder X/Y position, the output
	// column it fills (-1 when the attribute already existed or nothing
	// reads it).
	schema      *relation.Schema
	prefixArity int
	outX        []int
	outY        []int
	// fills[p] says where output column p gets its values.
	fills []colFill
}

// planLayout is the precompiled execution layout of one Bounded plan.
type planLayout struct {
	steps []stepLayout
	// finalSchema[ai] is the fetched schema of atom ai after its last step.
	finalSchema []*relation.Schema
	// eval is the evaluation layout compiled against finalSchema.
	eval *evalLayout
}

// constSel is one precompiled constant-selection predicate on an atom
// (constSels is indexed by atom).
type constSel struct {
	pred query.Pred
	col  int
	res  int // the column's entry in Bounded.Res
	dist relation.Distance
}

// joinSel is one precompiled join predicate: both sides resolved to
// (atom, column) against the final fetched schemas.
type joinSel struct {
	pred         query.Pred
	lAtom, rAtom int
	lCol, rCol   int
	lRes, rRes   int // the sides' entries in Bounded.Res
	lDist        relation.Distance
	// joinAt is the atom whose arrival makes both sides available:
	// max(lAtom, rAtom). Predicates entirely within atom 0 are enforced on
	// the final environment (residual).
	joinAt int
}

type evalLayout struct {
	outSchema *relation.Schema
	// envOffset[ai] is where atom ai's columns start in the joined
	// environment row.
	envOffset []int
	// constSels[ai] are the constant selections on atom ai.
	constSels [][]constSel
	joins     []joinSel
	// connecting[ai] indexes into joins: predicates applied when atom ai
	// joins the environment (ai ≥ 1). residual predicates apply at the end.
	connecting [][]int
	residual   []int
	outIdx     []int
}

// layout returns the plan's precompiled layout, building it on first use.
// Layouts depend only on the chase result (never on Ks or the budget), so
// one layout serves every execution of the plan, concurrent ones included.
func (p *Bounded) layoutFor() (*planLayout, error) {
	p.layoutOnce.Do(func() {
		p.layout, p.layoutErr = buildLayout(p)
	})
	return p.layout, p.layoutErr
}

// buildLayout simulates the plan's fetch steps and compiles its evaluation
// over the final schemas, reading every column binding from the chase's
// resolved leaf. A plan that leaves an atom without a fetch step, or never
// fetches a column the query needs, is rejected here, before any run.
func buildLayout(p *Bounded) (*planLayout, error) {
	c := p.Chase
	q := c.Leaf.Q
	read := readColumns(c)
	lay := &planLayout{finalSchema: make([]*relation.Schema, len(q.Atoms))}
	// colOf[ai][attr] is the column base attribute attr holds in atom ai's
	// schema so far, -1 while the atom lacks it.
	colOf := make([][]int, len(q.Atoms))
	for ai, b := range c.Leaf.Bases {
		colOf[ai] = make([]int, b.Arity())
		for i := range colOf[ai] {
			colOf[ai][i] = -1
		}
	}
	for si := range c.Steps {
		s := &c.Steps[si]
		sl, err := buildStepLayout(c.Leaf, lay.finalSchema, colOf, s, si, read[s.AtomIdx])
		if err != nil {
			return nil, err
		}
		lay.finalSchema[s.AtomIdx] = sl.schema
		lay.steps = append(lay.steps, *sl)
	}
	for ai, s := range lay.finalSchema {
		if s == nil {
			return nil, fmt.Errorf("plan: atom %s has no fetch step", q.Atoms[ai].Name())
		}
	}
	ev, err := buildEvalLayout(c, lay.finalSchema, colOf)
	if err != nil {
		return nil, err
	}
	lay.eval = ev
	return lay, nil
}

// readColumns returns, per atom and base attribute, whether its step
// schemas carry that attribute: the columns of its constant predicates,
// joins and outputs; every column a step reads as an external X source;
// and every ladder-X attribute that a step finds among the X and Y
// attributes earlier steps fetched on its own atom, so that position keeps
// reading the row's own value (xOwn).
func readColumns(c *chase.Result) [][]bool {
	leaf := c.Leaf
	// fetched[ai] holds every X and Y attribute the atom's steps so far
	// fetched: what its schema would hold if nothing were trimmed.
	read, fetched := make([][]bool, len(leaf.Bases)), make([][]bool, len(leaf.Bases))
	for ai, b := range leaf.Bases {
		read[ai], fetched[ai] = make([]bool, b.Arity()), make([]bool, b.Arity())
	}
	mark := func(b query.Binding) {
		read[b.Atom][b.Index] = true
	}
	for pi, pd := range leaf.Q.Preds {
		mark(leaf.Preds[pi].Left)
		if pd.Join {
			mark(leaf.Preds[pi].Right)
		}
	}
	for _, b := range leaf.Output {
		mark(b)
	}
	for si := range c.Steps {
		s := &c.Steps[si]
		ai := s.AtomIdx
		for xi, attr := range s.Ladder.XIdx() {
			switch src := s.X[xi]; {
			case fetched[ai][attr]:
				read[ai][attr] = true
			case !src.IsConst:
				read[src.AtomIdx][src.Attr] = true
			}
		}
		for _, a := range s.Ladder.XIdx() {
			fetched[ai][a] = true
		}
		for _, a := range s.Ladder.YIdx() {
			fetched[ai][a] = true
		}
	}
	return read
}

// buildStepLayout simulates one fetch step against the current schemas;
// the step adds the attributes of read it fetches that the atom lacks,
// recording their columns in colOf.
func buildStepLayout(leaf *query.Resolved, cur []*relation.Schema, colOf [][]int, s *chase.Step, si int, read []bool) (*stepLayout, error) {
	ai := s.AtomIdx
	base := leaf.Bases[ai]
	curS, own := cur[ai], colOf[ai]
	ladderX, ladderY := s.Ladder.XIdx(), s.Ladder.YIdx()

	sl := &stepLayout{
		atom:   ai,
		route:  make([]xRoute, len(ladderX)),
		ownCol: make([]int, len(ladderX)),
		consts: make([]relation.Value, len(ladderX)),
	}
	groupOf := map[int]int{}
	for xi, attr := range ladderX {
		if ci := own[attr]; ci >= 0 {
			sl.route[xi] = xOwn
			sl.ownCol[xi] = ci
			continue
		}
		src := s.X[xi]
		if src.IsConst {
			sl.route[xi] = xConst
			sl.consts[xi] = src.Const
			continue
		}
		sl.route[xi] = xExt
		gi, ok := groupOf[src.AtomIdx]
		if !ok {
			gi = len(sl.extGroups)
			groupOf[src.AtomIdx] = gi
			sl.extGroups = append(sl.extGroups, nil)
			sl.extSrcAtom = append(sl.extSrcAtom, src.AtomIdx)
			sl.extSrcCols = append(sl.extSrcCols, nil)
		}
		sl.extGroups[gi] = append(sl.extGroups[gi], xi)
	}
	for gi, positions := range sl.extGroups {
		srcAtom := sl.extSrcAtom[gi]
		if cur[srcAtom] == nil {
			return nil, fmt.Errorf("plan: step %d reads atom %d before it was fetched", si, srcAtom)
		}
		for _, xi := range positions {
			ci := colOf[srcAtom][s.X[xi].Attr]
			if ci < 0 {
				return nil, fmt.Errorf("plan: step %d: source column %s missing on atom %d",
					si, leaf.Bases[srcAtom].Attrs[s.X[xi].Attr].Name, srcAtom)
			}
			sl.extSrcCols[gi] = append(sl.extSrcCols[gi], ci)
		}
	}

	// New columns this step adds, in emission order: constants (X order),
	// external groups (group order), then Y — each only if it is read.
	var schemaAttrs []relation.Attribute
	if curS != nil {
		schemaAttrs = append(schemaAttrs, curS.Attrs...)
		sl.prefixArity = curS.Arity()
	}
	addNew := func(a int) {
		if read[a] && own[a] < 0 {
			own[a] = len(schemaAttrs)
			schemaAttrs = append(schemaAttrs, base.Attrs[a])
		}
	}
	for xi, r := range sl.route {
		if r == xConst {
			addNew(ladderX[xi])
		}
	}
	for _, g := range sl.extGroups {
		for _, xi := range g {
			addNew(ladderX[xi])
		}
	}
	for _, y := range ladderY {
		addNew(y)
	}
	schema, err := relation.NewSchema(leaf.Q.Atoms[ai].Name(), schemaAttrs...)
	if err != nil {
		return nil, fmt.Errorf("plan: step %d schema: %w", si, err)
	}
	sl.schema = schema

	// newCol is the column a attribute got from this step, or -1.
	newCol := func(a int) int {
		if own[a] >= sl.prefixArity {
			return own[a]
		}
		return -1
	}
	sl.outX = make([]int, len(ladderX))
	for xi, a := range ladderX {
		sl.outX[xi] = newCol(a)
	}
	sl.outY = make([]int, len(ladderY))
	for yi, a := range ladderY {
		sl.outY[yi] = newCol(a)
	}
	sl.fills = buildColFills(sl, schema.Arity())
	return sl, nil
}

// buildEvalLayout precompiles the evaluation plan of the chased leaf over
// the final fetched schemas, in which colOf places every base attribute.
// A column the query needs that no fetch step provides is an error naming
// that column.
func buildEvalLayout(c *chase.Result, finalSchema []*relation.Schema, colOf [][]int) (*evalLayout, error) {
	leaf := c.Leaf
	q := leaf.Q
	// locate finds a bound column in its atom's final schema; role names
	// the use in the error.
	locate := func(role string, b query.Binding) (int, error) {
		if ci := colOf[b.Atom][b.Index]; ci >= 0 {
			return ci, nil
		}
		return 0, fmt.Errorf("plan: %s column %s not fetched", role, b.Col)
	}

	ev := &evalLayout{
		outSchema: leaf.Schema,
		envOffset: make([]int, len(q.Atoms)),
		constSels: make([][]constSel, len(q.Atoms)),
	}
	off := 0
	for ai, s := range finalSchema {
		ev.envOffset[ai] = off
		off += s.Arity()
	}

	ev.connecting = make([][]int, len(q.Atoms))
	for pi, pd := range q.Preds {
		l := leaf.Preds[pi].Left
		if !pd.Join {
			ci, err := locate("predicate", l)
			if err != nil {
				return nil, err
			}
			ev.constSels[l.Atom] = append(ev.constSels[l.Atom], constSel{
				pred: pd, col: ci, res: c.Col(l.Atom, l.Index), dist: l.Attr.Dist,
			})
			continue
		}
		r := leaf.Preds[pi].Right
		lC, err := locate("join", l)
		if err != nil {
			return nil, err
		}
		rC, err := locate("join", r)
		if err != nil {
			return nil, err
		}
		j := joinSel{
			pred:  pd,
			lAtom: l.Atom, rAtom: r.Atom,
			lCol: lC, rCol: rC,
			lRes: c.Col(l.Atom, l.Index), rRes: c.Col(r.Atom, r.Index),
			lDist:  l.Attr.Dist,
			joinAt: max(l.Atom, r.Atom),
		}
		ji := len(ev.joins)
		ev.joins = append(ev.joins, j)
		if j.joinAt == 0 {
			ev.residual = append(ev.residual, ji)
		} else {
			ev.connecting[j.joinAt] = append(ev.connecting[j.joinAt], ji)
		}
	}

	ev.outIdx = make([]int, len(leaf.Output))
	for i, b := range leaf.Output {
		ci, err := locate("output", b)
		if err != nil {
			return nil, err
		}
		ev.outIdx[i] = ev.envOffset[b.Atom] + ci
	}
	return ev, nil
}
