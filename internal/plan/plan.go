// Package plan executes bounded query plans (paper §2.2): canonical plans
// ξα = (ξF, ξE) where ξF is a sequence of fetch(X ∈ T, R, Y, ψ) operations
// over the indices of an access schema and ξE evaluates the (relaxed)
// relational operations of the query on the fetched data.
//
// The executor accounts every tuple returned by an index lookup against the
// budget B = α|D| and truncates fetching if the budget would be exceeded —
// a runtime backstop behind the planner's data-independent tariff estimate.
// Fetched rows carry count annotations (how many base tuples a sample
// represents), which §7's sum/count/avg aggregation consumes.
//
// There is one executor (colexec.go): per-plan layouts are precompiled once
// (layout.go), fetched data stays in the ladder's columnar level blocks,
// and every fetch step resolves its distinct X-values with one batch call
// through a RemoteFetcher (fetcher.go) — in process or across a cluster.
// Budget-truncated executions can leave atoms with partially built
// schemas; evaluateDynamic, below, evaluates those by resolving columns at
// runtime.
package plan

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/chase"
	"repro/internal/query"
	"repro/internal/relation"
)

// Bounded is an α-bounded plan: a chased fetch-plan skeleton plus a level
// assignment for its template steps (chAT's output) and the budget.
type Bounded struct {
	Chase  *chase.Result
	Ks     []int
	Budget int

	// The execution layout is precompiled lazily on first execution and
	// shared by all (concurrent) executions; it depends only on Chase,
	// never on Ks or Budget.
	layoutOnce sync.Once
	layout     *planLayout
	layoutErr  error
}

// NewBounded wraps a chase result with its initial level assignment.
func NewBounded(c *chase.Result, budget int) *Bounded {
	return &Bounded{Chase: c, Ks: c.Levels(), Budget: budget}
}

// ResolutionOf exposes the fetch resolution of (atom, attr) under the
// plan's current level assignment.
func (p *Bounded) ResolutionOf(atom int, attr string) float64 {
	return p.Chase.ResolutionOf(atom, attr, p.Ks)
}

// Tariff estimates the plan's data access from schema metadata alone.
func (p *Bounded) Tariff() int { return p.Chase.Tariff(p.Ks) }

// Stats reports what a plan execution actually touched.
type Stats struct {
	// Accessed counts tuples returned by index lookups.
	Accessed int
	// Truncated reports whether fetching stopped early on budget
	// exhaustion.
	Truncated bool
}

// FetchedAtom is the data fetched for one atom of the SPC body in the row
// form evaluateDynamic consumes: a relation over the fetched attributes
// (unqualified names) with per-row count annotations.
type FetchedAtom struct {
	Alias   string
	Rel     *relation.Relation
	Weights []int
}

// Result is an executed plan's output: the (bag) answers with per-row
// weights (products of sample counts along the join) and access statistics.
type Result struct {
	Rel     *relation.Relation
	Weights []int
	Stats   Stats
}

// ExecOpts is the per-call execution state of one plan run: every knob
// travels with the call, so concurrent executions never share mutable
// globals. Build one with DefaultExecOpts and override fields.
type ExecOpts struct {
	// Budget is this run's access budget (tuples returned by index
	// lookups); the runtime backstop truncates fetching beyond it.
	Budget int
	// Workers bounds the fetch-side scatter-gather pool across the ladder's
	// shards; < 2 resolves every batch inline. Answers are identical at any
	// value.
	Workers int
	// Fetcher, when non-nil, resolves every fetch step's batch through it
	// instead of the ladder's in-process scatter-gather — the cluster
	// routing seam. Budget accounting stays sequential in first-seen
	// enumeration order over the returned views, so answers do not depend
	// on where a fetch was served. A fetcher error aborts the step (typed,
	// e.g. *cluster.PeerError) — never a silently partial answer.
	Fetcher RemoteFetcher
}

// DefaultExecOpts returns the executor defaults for one run: the given
// budget and scatter-gather pool, in-process fetching.
func DefaultExecOpts(budget, workers int) ExecOpts {
	return ExecOpts{Budget: budget, Workers: workers}
}

// cancelStride bounds how many enumeration visits the fetch loop processes
// between two context checks: cancellation is noticed within one stride of
// work at every level of the executor.
const cancelStride = 64

// ExecuteOpts runs the full plan — fetch then relaxed evaluation — under
// per-call options, leaving the plan itself untouched. Plans are immutable
// once generated, so the same *Bounded may be executed concurrently from
// many goroutines (each call builds its own fetch state); the budget is
// per-call because callers partition one global α|D| budget across the
// leaves of a larger plan.
//
// Execution is columnar (colexec.go): each fetch step resolves its
// distinct X-values with one batch — scatter-gathered across the ladder's
// shards on up to o.Workers goroutines, or routed through o.Fetcher — and
// accounts them against the budget sequentially in first-seen enumeration
// order, so answers, Stats and truncation points do not depend on the
// worker count, the shard count or where a fetch was served (asserted by
// TestShardCountInvariance, TestClusterInvariance and the golden digest
// suite). Runs whose truncation left an atom with a partial schema are
// evaluated by evaluateDynamic instead of the precompiled evaluator.
//
// Cancellation is cooperative: ctx is checked between fetch steps, every
// cancelStride enumeration visits, before each batch fetch and at every
// atom-join boundary of evaluation. A cancelled call returns ctx.Err()
// promptly instead of burning the rest of its budget.
func ExecuteOpts(ctx context.Context, p *Bounded, db *relation.Database, o ExecOpts) (*Result, error) {
	if o.Fetcher == nil {
		o.Fetcher = localFetcher{workers: o.Workers}
	}
	lay, err := p.layoutFor(db)
	if err != nil {
		return nil, err
	}
	atoms, stats, err := executeFetchBlocks(ctx, p, lay, o)
	if err != nil {
		return nil, err
	}
	var res *Result
	if lay.eval != nil && blocksComplete(lay, atoms) {
		res, err = evaluateColumnar(ctx, p, lay, atoms)
	} else {
		res, err = evaluateDynamic(ctx, p, db, materializeAtoms(p, lay, atoms))
	}
	if err != nil {
		return nil, err
	}
	res.Stats = *stats
	return res, nil
}

func atomAlias(p *Bounded, ai int) string { return p.Chase.Query.Atoms[ai].Name() }

// evaluateDynamic evaluates the runs evaluateColumnar cannot serve (an atom
// left with a partial schema by budget truncation, or a plan without a
// static eval layout): columns are resolved at runtime against whatever
// schemas the fetch produced, and a column the query needs but the fetch
// never built surfaces as an error. On complete fetches it agrees with
// evaluateColumnar row for row (TestFastEvalMatchesDynamic).
func evaluateDynamic(ctx context.Context, p *Bounded, db *relation.Database, atoms []*FetchedAtom) (*Result, error) {
	q := p.Chase.Query
	outSchema, err := query.OutputSchema(q, db)
	if err != nil {
		return nil, err
	}
	aliasIdx := make(map[string]int, len(q.Atoms))
	for i, a := range q.Atoms {
		aliasIdx[a.Name()] = i
	}
	resOf := func(c query.Col) float64 {
		return p.Chase.ResolutionOf(aliasIdx[c.Rel], c.Attr, p.Ks)
	}
	distOf := func(c query.Col) relation.Distance {
		s := db.MustRelation(q.Atoms[aliasIdx[c.Rel]].Rel).Schema
		return s.Attrs[s.MustIndex(c.Attr)].Dist
	}

	// Env of qualified columns across joined atoms.
	type envT struct {
		cols []query.Col
		pos  map[query.Col]int
	}
	env := envT{pos: map[query.Col]int{}}
	var rows []relation.Tuple
	var weights []int

	constPreds := make(map[string][]query.Pred)
	var joinPreds []query.Pred
	for _, p := range q.Preds {
		if p.Join {
			joinPreds = append(joinPreds, p)
		} else {
			constPreds[p.Left.Rel] = append(constPreds[p.Left.Rel], p)
		}
	}
	applied := make([]bool, len(joinPreds))
	processed := map[string]bool{}

	for ai, atom := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		alias := atom.Name()
		fa := atoms[ai]

		// Relaxed constant selection on this atom's rows.
		var atomRows []relation.Tuple
		var atomWs []int
		for ri, t := range fa.Rel.Tuples {
			ok := true
			for _, pd := range constPreds[alias] {
				ci, has := fa.Rel.Schema.Index(pd.Left.Attr)
				if !has {
					return nil, fmt.Errorf("plan: predicate column %s not fetched", pd.Left)
				}
				r := resOf(pd.Left)
				if math.IsInf(r, 1) {
					continue // unboundedly approximate: cannot filter
				}
				if !pd.RelaxedHolds(distOf(pd.Left), t[ci], relation.Null(), r) {
					ok = false
					break
				}
			}
			if ok {
				atomRows = append(atomRows, t)
				atomWs = append(atomWs, fa.Weights[ri])
			}
		}

		atomCols := make([]query.Col, fa.Rel.Schema.Arity())
		for i, a := range fa.Rel.Schema.Attrs {
			atomCols[i] = query.C(alias, a.Name)
		}

		if ai == 0 {
			rows, weights = atomRows, atomWs
			for i, c := range atomCols {
				env.pos[c] = i
				env.cols = append(env.cols, c)
			}
			processed[alias] = true
			continue
		}

		// Connecting join predicates. A tolerance of +inf means the
		// attribute was fetched with unbounded resolution: relaxation
		// cannot meaningfully widen such a join (the accuracy bound is
		// already 0), so it is enforced exactly — which also keeps the
		// join from degenerating into a cross product.
		var exactEq, relaxed []int
		for pi, pd := range joinPreds {
			if applied[pi] {
				continue
			}
			lNew, rNew := pd.Left.Rel == alias, pd.Right.Rel == alias
			lOld, rOld := processed[pd.Left.Rel], processed[pd.Right.Rel]
			if !((lNew && rOld) || (rNew && lOld) || (lNew && rNew)) {
				continue
			}
			tol := (resOf(pd.Left) + resOf(pd.Right)) / 2
			if pd.Op == query.OpEq && (tol == 0 || math.IsInf(tol, 1)) && !(lNew && rNew) {
				exactEq = append(exactEq, pi)
			} else {
				relaxed = append(relaxed, pi)
			}
		}

		valOf := func(c query.Col, envRow, atomRow relation.Tuple) (relation.Value, error) {
			if c.Rel == alias {
				ci, ok := fa.Rel.Schema.Index(c.Attr)
				if !ok {
					return relation.Null(), fmt.Errorf("plan: join column %s not fetched", c)
				}
				return atomRow[ci], nil
			}
			pi, ok := env.pos[c]
			if !ok {
				return relation.Null(), fmt.Errorf("plan: join column %s not in scope", c)
			}
			return envRow[pi], nil
		}

		var joined []relation.Tuple
		var joinedW []int
		emit := func(envRow relation.Tuple, ew int, atomRow relation.Tuple, aw int) error {
			for _, pi := range relaxed {
				pd := joinPreds[pi]
				lv, err := valOf(pd.Left, envRow, atomRow)
				if err != nil {
					return err
				}
				rv, err := valOf(pd.Right, envRow, atomRow)
				if err != nil {
					return err
				}
				tol := (resOf(pd.Left) + resOf(pd.Right)) / 2
				if math.IsInf(tol, 1) {
					// Unbounded resolution: enforce exactly (see above).
					if !pd.Holds(lv, rv) {
						return nil
					}
					continue
				}
				if !pd.RelaxedHolds(distOf(pd.Left), lv, rv, tol) {
					return nil
				}
			}
			nt := make(relation.Tuple, 0, len(envRow)+len(atomRow))
			nt = append(append(nt, envRow...), atomRow...)
			joined = append(joined, nt)
			joinedW = append(joinedW, ew*aw)
			return nil
		}

		if len(exactEq) > 0 {
			atomKeyIdx := make([]int, len(exactEq))
			envKeyIdx := make([]int, len(exactEq))
			for i, pi := range exactEq {
				pd := joinPreds[pi]
				ac, ec := pd.Left, pd.Right
				if ec.Rel == alias {
					ac, ec = ec, ac
				}
				ci, _ := fa.Rel.Schema.Index(ac.Attr)
				atomKeyIdx[i] = ci
				envKeyIdx[i] = env.pos[ec]
			}
			ht := map[string][]int{}
			for ri, t := range atomRows {
				k := t.Project(atomKeyIdx).Key()
				ht[k] = append(ht[k], ri)
			}
			for ei, et := range rows {
				for _, ri := range ht[et.Project(envKeyIdx).Key()] {
					if err := emit(et, weights[ei], atomRows[ri], atomWs[ri]); err != nil {
						return nil, err
					}
				}
			}
		} else {
			if len(rows)*len(atomRows) > query.MaxIntermediate {
				return nil, fmt.Errorf("plan: relaxed join of %d x %d rows exceeds limit", len(rows), len(atomRows))
			}
			for ei, et := range rows {
				for ri, at := range atomRows {
					if err := emit(et, weights[ei], at, atomWs[ri]); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, pi := range exactEq {
			applied[pi] = true
		}
		for _, pi := range relaxed {
			applied[pi] = true
		}
		rows, weights = joined, joinedW
		for _, c := range atomCols {
			env.pos[c] = len(env.cols)
			env.cols = append(env.cols, c)
		}
		processed[alias] = true
	}

	// Residual join predicates within the final environment.
	for pi, pd := range joinPreds {
		if applied[pi] {
			continue
		}
		tol := (resOf(pd.Left) + resOf(pd.Right)) / 2
		li, lok := env.pos[pd.Left]
		ri, rok := env.pos[pd.Right]
		if !lok || !rok {
			return nil, fmt.Errorf("plan: join predicate %s references unfetched columns", pd)
		}
		var kept []relation.Tuple
		var keptW []int
		for i, t := range rows {
			ok := false
			if math.IsInf(tol, 1) {
				ok = pd.Holds(t[li], t[ri])
			} else {
				ok = pd.RelaxedHolds(distOf(pd.Left), t[li], t[ri], tol)
			}
			if ok {
				kept = append(kept, t)
				keptW = append(keptW, weights[i])
			}
		}
		rows, weights = kept, keptW
	}

	// Project.
	outCols, err := query.OutputCols(q, db)
	if err != nil {
		return nil, err
	}
	outIdx := make([]int, len(outCols))
	for i, c := range outCols {
		pos, ok := env.pos[c]
		if !ok {
			return nil, fmt.Errorf("plan: output column %s not fetched", c)
		}
		outIdx[i] = pos
	}
	res := &Result{Rel: relation.NewRelation(outSchema)}
	for i, t := range rows {
		res.Rel.Tuples = append(res.Rel.Tuples, t.Project(outIdx))
		res.Weights = append(res.Weights, weights[i])
	}
	return res, nil
}
