package query

import (
	"fmt"
	"math"

	"repro/internal/relation"
)

// MaxIntermediate caps the size of intermediate join results; evaluation
// fails rather than exhausting memory on a runaway Cartesian product.
const MaxIntermediate = 4_000_000

// Evaluate computes the exact answers Q(D). SPC leaves produce bags;
// union and difference apply set semantics (distinct); group-by aggregates
// over the bag of its child. Callers that need RA set semantics for a plain
// SPC query should Distinct the result.
func Evaluate(db *relation.Database, e Expr) (*relation.Relation, error) {
	switch q := e.(type) {
	case *SPC:
		rows, _, sch, err := evalSPC(db, q, false)
		if err != nil {
			return nil, err
		}
		out := relation.NewRelation(sch)
		out.Tuples = rows
		return out, nil
	case *Union:
		l, err := Evaluate(db, q.L)
		if err != nil {
			return nil, err
		}
		r, err := Evaluate(db, q.R)
		if err != nil {
			return nil, err
		}
		if l.Schema.Arity() != r.Schema.Arity() {
			return nil, fmt.Errorf("query: union arity mismatch")
		}
		out := relation.NewRelation(l.Schema)
		out.Tuples = append(append([]relation.Tuple{}, l.Tuples...), r.Tuples...)
		return out.Distinct(), nil
	case *Diff:
		l, err := Evaluate(db, q.L)
		if err != nil {
			return nil, err
		}
		r, err := Evaluate(db, q.R)
		if err != nil {
			return nil, err
		}
		if l.Schema.Arity() != r.Schema.Arity() {
			return nil, fmt.Errorf("query: difference arity mismatch")
		}
		drop := make(map[string]struct{}, r.Len())
		for _, t := range r.Tuples {
			drop[t.Key()] = struct{}{}
		}
		out := relation.NewRelation(l.Schema)
		for _, t := range l.Distinct().Tuples {
			if _, gone := drop[t.Key()]; !gone {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	case *GroupBy:
		return evalGroupBy(db, q)
	default:
		return nil, fmt.Errorf("query: unknown expression %T", e)
	}
}

// EvaluateSet is Evaluate followed by duplicate elimination, the set
// semantics the RC-measure assumes for RA queries (§3.1).
func EvaluateSet(db *relation.Database, e Expr) (*relation.Relation, error) {
	r, err := Evaluate(db, e)
	if err != nil {
		return nil, err
	}
	return r.Distinct(), nil
}

// EvaluateTracked evaluates an RA expression under full relaxation tracking:
// it returns the distinct candidate answers of the relaxed queries Qr
// together with, per candidate, the minimal relaxation range r at which the
// candidate enters Qr(D) (§3.1). Predicates on attributes with unbounded
// (trivial) distances can never be relaxed and are enforced exactly.
// Group-by is rejected; the accuracy package handles it per §3.2.
func EvaluateTracked(db *relation.Database, e Expr) (*relation.Relation, []float64, error) {
	switch q := e.(type) {
	case *SPC:
		rows, viols, sch, err := evalSPC(db, q, true)
		if err != nil {
			return nil, nil, err
		}
		out := relation.NewRelation(sch)
		out.Tuples = rows
		return out, viols, nil
	case *Union:
		l, lv, err := EvaluateTracked(db, q.L)
		if err != nil {
			return nil, nil, err
		}
		r, rv, err := EvaluateTracked(db, q.R)
		if err != nil {
			return nil, nil, err
		}
		merged := relation.NewRelation(l.Schema)
		var viols []float64
		pos := make(map[string]int)
		add := func(t relation.Tuple, v float64) {
			k := t.Key()
			if i, ok := pos[k]; ok {
				if v < viols[i] {
					viols[i] = v
				}
				return
			}
			pos[k] = len(viols)
			merged.Tuples = append(merged.Tuples, t)
			viols = append(viols, v)
		}
		for i, t := range l.Tuples {
			add(t, lv[i])
		}
		for i, t := range r.Tuples {
			add(t, rv[i])
		}
		return merged, viols, nil
	case *Diff:
		l, lv, err := EvaluateTracked(db, q.L)
		if err != nil {
			return nil, nil, err
		}
		r, rv, err := EvaluateTracked(db, q.R)
		if err != nil {
			return nil, nil, err
		}
		// t is in Qr(D) iff it enters Q1r by range r and has not yet
		// entered Q2r: feasible ranges are lv(t) <= r < enter2(t).
		enter2 := make(map[string]float64, r.Len())
		for i, t := range r.Tuples {
			k := t.Key()
			if v, ok := enter2[k]; !ok || rv[i] < v {
				enter2[k] = rv[i]
			}
		}
		out := relation.NewRelation(l.Schema)
		var viols []float64
		for i, t := range l.Tuples {
			if v2, ok := enter2[t.Key()]; ok && v2 <= lv[i] {
				continue // excluded before it can enter
			}
			out.Tuples = append(out.Tuples, t)
			viols = append(viols, lv[i])
		}
		return out, viols, nil
	case *GroupBy:
		return nil, nil, fmt.Errorf("query: EvaluateTracked does not support group-by")
	default:
		return nil, nil, fmt.Errorf("query: unknown expression %T", e)
	}
}

// --- SPC join core -----------------------------------------------------

type colEnv struct {
	cols  []Col
	pos   map[Col]int
	attrs []relation.Attribute
}

func (e *colEnv) mustPos(c Col) int {
	p, ok := e.pos[c]
	if !ok {
		panic(fmt.Sprintf("query: column %s not in scope", c))
	}
	return p
}

// evalSPC evaluates the SPC body. In tracked mode the result is distinct
// with per-row minimal relaxation ranges; otherwise a bag with nil viols.
func evalSPC(db *relation.Database, q *SPC, track bool) ([]relation.Tuple, []float64, *relation.Schema, error) {
	sch, err := OutputSchema(q, db)
	if err != nil {
		return nil, nil, nil, err
	}
	byAlias := make(map[string]*relation.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		r, _ := db.Relation(a.Rel) // validated by OutputSchema
		byAlias[a.Name()] = r
	}
	distOf := func(c Col) relation.Distance {
		s := byAlias[c.Rel].Schema
		return s.Attrs[s.MustIndex(c.Attr)].Dist
	}

	constPreds := make(map[string][]Pred)
	var joinPreds []Pred
	for _, p := range q.Preds {
		if p.Join {
			joinPreds = append(joinPreds, p)
		} else {
			constPreds[p.Left.Rel] = append(constPreds[p.Left.Rel], p)
		}
	}

	order := atomOrder(q, joinPreds, constPreds)

	var rows []relation.Tuple
	var viols []float64
	env := &colEnv{pos: make(map[Col]int)}
	applied := make([]bool, len(joinPreds))
	processed := make(map[string]bool)

	for step, ai := range order {
		atom := q.Atoms[ai]
		alias := atom.Name()
		base := byAlias[alias]
		atomRows, atomViols := filterAtom(base, alias, constPreds[alias], track, distOf)

		atomCols := make([]Col, base.Schema.Arity())
		for i, a := range base.Schema.Attrs {
			atomCols[i] = C(alias, a.Name)
		}

		if step == 0 {
			rows, viols = atomRows, atomViols
			env.extend(atomCols, base.Schema.Attrs)
			processed[alias] = true
			continue
		}

		// Predicates connecting the new atom to the current environment.
		var hashEq, other []int
		for pi, p := range joinPreds {
			if applied[pi] {
				continue
			}
			lNew, rNew := p.Left.Rel == alias, p.Right.Rel == alias
			lOld, rOld := processed[p.Left.Rel], processed[p.Right.Rel]
			if !((lNew && rOld) || (rNew && lOld) || (lNew && rNew)) {
				continue
			}
			if lNew && rNew {
				other = append(other, pi) // intra-atom predicate
				continue
			}
			hashable := p.Op == OpEq && (!track || !distOf(p.Left).Bounded())
			if hashable {
				hashEq = append(hashEq, pi)
			} else {
				other = append(other, pi)
			}
		}

		var joined []relation.Tuple
		var joinedViols []float64
		emit := func(envRow relation.Tuple, ev float64, atomRow relation.Tuple, av float64) error {
			nt := make(relation.Tuple, 0, len(envRow)+len(atomRow))
			nt = append(append(nt, envRow...), atomRow...)
			v := math.Max(ev, av)
			// Apply the non-hash connecting predicates.
			for _, pi := range other {
				p := joinPreds[pi]
				lv := valueOf(p.Left, env, envRow, alias, atomCols, atomRow)
				rv := valueOf(p.Right, env, envRow, alias, atomCols, atomRow)
				d := distOf(p.Left)
				if track && d.Bounded() {
					v = math.Max(v, p.Violation(d, lv, rv))
				} else if !p.Holds(lv, rv) {
					return nil
				}
			}
			joined = append(joined, nt)
			if track {
				joinedViols = append(joinedViols, v)
			}
			if len(joined) > MaxIntermediate {
				return fmt.Errorf("query: intermediate result exceeds %d rows", MaxIntermediate)
			}
			return nil
		}

		if len(hashEq) > 0 {
			// Hash join on the equality predicates.
			atomKeyIdx := make([]int, len(hashEq))
			envKeyCols := make([]Col, len(hashEq))
			for i, pi := range hashEq {
				p := joinPreds[pi]
				if p.Left.Rel == alias {
					atomKeyIdx[i] = indexOfCol(atomCols, p.Left)
					envKeyCols[i] = p.Right
				} else {
					atomKeyIdx[i] = indexOfCol(atomCols, p.Right)
					envKeyCols[i] = p.Left
				}
			}
			ht := make(map[string][]int)
			for ri, t := range atomRows {
				k := t.Project(atomKeyIdx).Key()
				ht[k] = append(ht[k], ri)
			}
			envKeyIdx := make([]int, len(envKeyCols))
			for i, c := range envKeyCols {
				envKeyIdx[i] = env.mustPos(c)
			}
			for ei, et := range rows {
				k := et.Project(envKeyIdx).Key()
				for _, ri := range ht[k] {
					av := 0.0
					if track {
						av = atomViols[ri]
					}
					evv := 0.0
					if track {
						evv = viols[ei]
					}
					if err := emit(et, evv, atomRows[ri], av); err != nil {
						return nil, nil, nil, err
					}
				}
			}
		} else {
			// Nested-loop (Cartesian product plus filters).
			if len(rows)*len(atomRows) > MaxIntermediate {
				return nil, nil, nil, fmt.Errorf("query: Cartesian product of %d x %d rows exceeds limit", len(rows), len(atomRows))
			}
			for ei, et := range rows {
				evv := 0.0
				if track {
					evv = viols[ei]
				}
				for ri, at := range atomRows {
					av := 0.0
					if track {
						av = atomViols[ri]
					}
					if err := emit(et, evv, at, av); err != nil {
						return nil, nil, nil, err
					}
				}
			}
		}

		for _, pi := range hashEq {
			applied[pi] = true
		}
		for _, pi := range other {
			applied[pi] = true
		}
		rows, viols = joined, joinedViols
		env.extend(atomCols, base.Schema.Attrs)
		processed[alias] = true
	}

	// Any join predicate not yet applied connects aliases both processed
	// earlier than the predicate's discovery; apply as final filters.
	for pi, p := range joinPreds {
		if applied[pi] {
			continue
		}
		d := distOf(p.Left)
		li, ri := env.mustPos(p.Left), env.mustPos(p.Right)
		var kept []relation.Tuple
		var keptV []float64
		for i, t := range rows {
			if track && d.Bounded() {
				v := math.Max(violAt(viols, i), p.Violation(d, t[li], t[ri]))
				kept = append(kept, t)
				keptV = append(keptV, v)
			} else if p.Holds(t[li], t[ri]) {
				kept = append(kept, t)
				if track {
					keptV = append(keptV, viols[i])
				}
			}
		}
		rows, viols = kept, keptV
	}

	// Project.
	outCols, err := OutputCols(q, db)
	if err != nil {
		return nil, nil, nil, err
	}
	outIdx := make([]int, len(outCols))
	for i, c := range outCols {
		p, ok := env.pos[c]
		if !ok {
			return nil, nil, nil, fmt.Errorf("query: output column %s not in scope", c)
		}
		outIdx[i] = p
	}
	if !track {
		out := make([]relation.Tuple, len(rows))
		for i, t := range rows {
			out[i] = t.Project(outIdx)
		}
		return out, nil, sch, nil
	}
	// Tracked mode: distinct, keeping the minimal violation per tuple.
	pos := make(map[string]int)
	var out []relation.Tuple
	var outV []float64
	for i, t := range rows {
		pt := t.Project(outIdx)
		k := pt.Key()
		if j, ok := pos[k]; ok {
			if viols[i] < outV[j] {
				outV[j] = viols[i]
			}
			continue
		}
		pos[k] = len(out)
		out = append(out, pt)
		outV = append(outV, viols[i])
	}
	return out, outV, sch, nil
}

func (e *colEnv) extend(cols []Col, attrs []relation.Attribute) {
	for i, c := range cols {
		e.pos[c] = len(e.cols)
		e.cols = append(e.cols, c)
		e.attrs = append(e.attrs, attrs[i])
	}
}

func violAt(v []float64, i int) float64 {
	if v == nil {
		return 0
	}
	return v[i]
}

func valueOf(c Col, env *colEnv, envRow relation.Tuple, alias string, atomCols []Col, atomRow relation.Tuple) relation.Value {
	if c.Rel == alias {
		return atomRow[indexOfCol(atomCols, c)]
	}
	return envRow[env.mustPos(c)]
}

func indexOfCol(cols []Col, c Col) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	panic(fmt.Sprintf("query: column %s not found", c))
}

// filterAtom loads an atom's tuples applying its constant predicates: hard
// filters in exact mode (and for unrelaxable trivial-distance attributes),
// violation tracking otherwise.
func filterAtom(base *relation.Relation, alias string, preds []Pred, track bool, distOf func(Col) relation.Distance) ([]relation.Tuple, []float64) {
	var rows []relation.Tuple
	var viols []float64
	for _, t := range base.Tuples {
		v := 0.0
		keep := true
		for _, p := range preds {
			i := base.Schema.MustIndex(p.Left.Attr)
			d := distOf(p.Left)
			if track && d.Bounded() {
				v = math.Max(v, p.Violation(d, t[i], relation.Null()))
			} else if !p.Holds(t[i], relation.Null()) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		rows = append(rows, t)
		if track {
			viols = append(viols, v)
		}
	}
	return rows, viols
}

// atomOrder produces a greedy left-deep join order: start from the most
// selective atom (most constant predicates), then repeatedly pick an atom
// connected to the processed set by a join predicate.
func atomOrder(q *SPC, joinPreds []Pred, constPreds map[string][]Pred) []int {
	n := len(q.Atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	aliasOf := func(i int) string { return q.Atoms[i].Name() }

	best := 0
	for i := 1; i < n; i++ {
		if len(constPreds[aliasOf(i)]) > len(constPreds[aliasOf(best)]) {
			best = i
		}
	}
	order = append(order, best)
	used[best] = true
	processed := map[string]bool{aliasOf(best): true}

	for len(order) < n {
		next := -1
		bestScore := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, p := range joinPreds {
				if (p.Left.Rel == aliasOf(i) && processed[p.Right.Rel]) ||
					(p.Right.Rel == aliasOf(i) && processed[p.Left.Rel]) {
					score += 10
				}
			}
			score += len(constPreds[aliasOf(i)])
			if score > bestScore {
				bestScore, next = score, i
			}
		}
		order = append(order, next)
		used[next] = true
		processed[aliasOf(next)] = true
	}
	return order
}

// --- group-by ----------------------------------------------------------

func evalGroupBy(db *relation.Database, q *GroupBy) (*relation.Relation, error) {
	child, err := Evaluate(db, q.In)
	if err != nil {
		return nil, err
	}
	sch, err := OutputSchema(q, db)
	if err != nil {
		return nil, err
	}
	keyNames := make([]string, len(q.Keys))
	for i, k := range q.Keys {
		keyNames[i] = k.Name()
	}
	groups, err := child.GroupBy(keyNames)
	if err != nil {
		return nil, err
	}
	onIdx, ok := child.Schema.Index(q.On.Name())
	if !ok {
		return nil, fmt.Errorf("query: aggregate column %s missing", q.On)
	}
	out := relation.NewRelation(sch)
	for _, g := range groups {
		agg, err := aggregateValues(q.Agg, g.Tuples, onIdx)
		if err != nil {
			return nil, err
		}
		t := make(relation.Tuple, 0, len(g.Key)+1)
		t = append(append(t, g.Key...), agg)
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// aggregateValues folds the aggregate over the group members' On column.
// Weights of 1 per row (bag semantics); the plan executor has a weighted
// variant for count-annotated samples.
func aggregateValues(kind AggKind, tuples []relation.Tuple, onIdx int) (relation.Value, error) {
	switch kind {
	case AggCount:
		return relation.Int(int64(len(tuples))), nil
	case AggMin, AggMax:
		best := tuples[0][onIdx]
		for _, t := range tuples[1:] {
			v := t[onIdx]
			if (kind == AggMin && v.Less(best)) || (kind == AggMax && best.Less(v)) {
				best = v
			}
		}
		return best, nil
	case AggSum, AggAvg:
		sum := 0.0
		for _, t := range tuples {
			f, ok := t[onIdx].AsFloat()
			if !ok {
				return relation.Null(), fmt.Errorf("query: %v of non-numeric value %v", kind, t[onIdx])
			}
			sum += f
		}
		if kind == AggAvg {
			sum /= float64(len(tuples))
		}
		return relation.Float(sum), nil
	default:
		return relation.Null(), fmt.Errorf("query: unknown aggregate %v", kind)
	}
}
