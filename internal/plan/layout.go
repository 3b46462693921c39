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
// (map[string]int and map[int]Value fills, Schema.Index calls, fmt.Sprintf
// group keys). All of that is a pure function of the chase result, so it is
// computed once per plan here and the executor runs over flat int slices.
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
	dist relation.Distance
}

// joinSel is one precompiled join predicate: both sides resolved to
// (atom, column) against the final fetched schemas.
type joinSel struct {
	pred         query.Pred
	lAtom, rAtom int
	lCol, rCol   int
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
	leaf := p.Chase.Leaf
	q := leaf.Q
	read := readColumns(leaf, p.Chase.Steps)
	lay := &planLayout{finalSchema: make([]*relation.Schema, len(q.Atoms))}
	for si := range p.Chase.Steps {
		s := &p.Chase.Steps[si]
		sl, err := buildStepLayout(leaf, lay.finalSchema, s, si, read[s.AtomIdx])
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
	ev, err := buildEvalLayout(leaf, lay.finalSchema)
	if err != nil {
		return nil, err
	}
	lay.eval = ev
	return lay, nil
}

// readColumns returns, per atom, the attributes its step schemas carry:
// the columns of its constant predicates, joins and outputs; every column
// a step reads as an external X source; and every ladder-X attribute that
// a step finds among the X and Y attributes earlier steps fetched on its
// own atom, so that position keeps reading the row's own value (xOwn).
func readColumns(leaf *query.Resolved, steps []chase.Step) []map[string]bool {
	q := leaf.Q
	read := make([]map[string]bool, len(q.Atoms))
	for i := range q.Atoms {
		read[i] = map[string]bool{}
	}
	mark := func(b query.Binding) {
		read[b.Atom][b.Attr.Name] = true
	}
	for pi, pd := range q.Preds {
		mark(leaf.Preds[pi].Left)
		if pd.Join {
			mark(leaf.Preds[pi].Right)
		}
	}
	for _, b := range leaf.Output {
		mark(b)
	}
	// fetched[ai] holds every X and Y attribute the atom's steps so far
	// fetched: what its schema would hold if nothing were trimmed.
	fetched := make([]map[string]bool, len(q.Atoms))
	for ai := range fetched {
		fetched[ai] = map[string]bool{}
	}
	for si := range steps {
		s := &steps[si]
		ai := s.AtomIdx
		for xi, attr := range s.Ladder.X {
			switch src := s.X[xi]; {
			case fetched[ai][attr]:
				read[ai][attr] = true
			case !src.IsConst:
				read[src.AtomIdx][src.Attr] = true
			}
		}
		for _, a := range s.Ladder.X {
			fetched[ai][a] = true
		}
		for _, a := range s.Ladder.Y {
			fetched[ai][a] = true
		}
	}
	return read
}

// buildStepLayout simulates one fetch step against the current schemas;
// the step adds the attributes of read it fetches that the atom lacks.
func buildStepLayout(leaf *query.Resolved, cur []*relation.Schema, s *chase.Step, si int, read map[string]bool) (*stepLayout, error) {
	ai := s.AtomIdx
	base := leaf.Bases[ai]
	curS := cur[ai]
	ladderX, ladderY := s.Ladder.X, s.Ladder.Y

	sl := &stepLayout{
		atom:   ai,
		route:  make([]xRoute, len(ladderX)),
		ownCol: make([]int, len(ladderX)),
		consts: make([]relation.Value, len(ladderX)),
	}
	groupOf := map[int]int{}
	for xi, attr := range ladderX {
		if curS != nil {
			if ci, ok := curS.Index(attr); ok {
				sl.route[xi] = xOwn
				sl.ownCol[xi] = ci
				continue
			}
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
		srcS := cur[srcAtom]
		if srcS == nil {
			return nil, fmt.Errorf("plan: step %d reads atom %d before it was fetched", si, srcAtom)
		}
		for _, xi := range positions {
			ci, ok := srcS.Index(s.X[xi].Attr)
			if !ok {
				return nil, fmt.Errorf("plan: step %d: source column %s missing on atom %d", si, s.X[xi].Attr, srcAtom)
			}
			sl.extSrcCols[gi] = append(sl.extSrcCols[gi], ci)
		}
	}

	// New columns this step adds, in emission order: constants (X order),
	// external groups (group order), then Y — each only if it is read.
	var newAttrs []string
	isNew := map[string]bool{}
	addNew := func(a string) {
		if isNew[a] || !read[a] {
			return
		}
		if curS != nil {
			if _, ok := curS.Index(a); ok {
				return
			}
		}
		isNew[a] = true
		newAttrs = append(newAttrs, a)
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

	var schemaAttrs []relation.Attribute
	if curS != nil {
		schemaAttrs = append(schemaAttrs, curS.Attrs...)
		sl.prefixArity = curS.Arity()
	}
	idx, err := base.Indices(newAttrs)
	if err != nil {
		return nil, fmt.Errorf("plan: step %d schema: %w", si, err)
	}
	for _, i := range idx {
		schemaAttrs = append(schemaAttrs, base.Attrs[i])
	}
	schema, err := relation.NewSchema(leaf.Q.Atoms[ai].Name(), schemaAttrs...)
	if err != nil {
		return nil, fmt.Errorf("plan: step %d schema: %w", si, err)
	}
	sl.schema = schema

	newPos := make(map[string]int, len(newAttrs))
	for i, a := range newAttrs {
		newPos[a] = sl.prefixArity + i
	}
	sl.outX = make([]int, len(ladderX))
	for xi, a := range ladderX {
		if pos, ok := newPos[a]; ok {
			sl.outX[xi] = pos
		} else {
			sl.outX[xi] = -1
		}
	}
	sl.outY = make([]int, len(ladderY))
	for yi, a := range ladderY {
		if pos, ok := newPos[a]; ok {
			sl.outY[yi] = pos
		} else {
			sl.outY[yi] = -1
		}
	}
	sl.fills = buildColFills(sl, schema.Arity())
	return sl, nil
}

// buildEvalLayout precompiles the evaluation plan of the resolved leaf over
// the final fetched schemas. A column the query needs that no fetch step
// provides is an error naming that column.
func buildEvalLayout(leaf *query.Resolved, finalSchema []*relation.Schema) (*evalLayout, error) {
	q := leaf.Q
	// locate finds a bound column in its atom's final schema; role names
	// the use in the error.
	locate := func(role string, b query.Binding) (int, error) {
		if ci, ok := finalSchema[b.Atom].Index(b.Attr.Name); ok {
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
				pred: pd, col: ci, dist: l.Attr.Dist,
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
