package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/freelist"
	"repro/internal/guard"
	"repro/internal/kdtree"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// ExecPanicHook, when non-nil, is invoked before every leaf execution. It
// exists so tests can force a panic inside the evaluator — including inside
// a concurrent leaf's goroutine — and assert that crash containment turns
// it into a typed *guard.PanicError instead of killing the process. Always
// nil in production; not synchronised, so set it only before execution
// starts.
var ExecPanicHook func()

// Answer is an executed plan's result: the approximate (or exact) answers
// with the final deterministic accuracy bound.
type Answer struct {
	Rel *relation.Relation
	// Eta is the accuracy lower bound: the plan's η, refined to η′ for
	// queries with set difference (§6), and 1 for exact answers.
	Eta float64
	// Exact reports the answers are exactly Q(D).
	Exact bool
	// Trace is the full derivation record of Eta — the plan's bound trace
	// extended with execution-stage overrides (η′ refinement, exactness,
	// truncation). Populated only when ExecOptions.ExplainEta is set.
	Trace *BoundTrace
	// ExecTrace is the query-scoped span tree collected when the call
	// carried ExecOptions.Trace: planning, each leaf, fetch steps, cluster
	// peer fan-out, combine and η′ refinement, with timings and access
	// accounting. Nil when tracing was disabled. (Named ExecTrace because
	// Trace is taken by the η derivation record above.)
	ExecTrace *obs.Trace
	// Stats aggregates data access over all leaf executions.
	Stats plan.Stats
}

// Rows is a pull iterator over an Answer's tuples (the streaming-friendly
// counterpart of ranging over Answer.Rel.Tuples).
type Rows struct {
	tuples []relation.Tuple
	i      int
}

// Rows returns a pull iterator over the answer's tuples.
func (a *Answer) Rows() *Rows { return &Rows{tuples: a.Rel.Tuples} }

// Next returns the next answer row, or (nil, false) when exhausted.
func (r *Rows) Next() (relation.Tuple, bool) {
	if r.i >= len(r.tuples) {
		return nil, false
	}
	t := r.tuples[r.i]
	r.i++
	return t, true
}

// ExecuteContext runs the plan against the database (component C4) under
// the call's options: the answers derive from at most Budget tuple
// accesses. The plan is not mutated, so one (possibly cached) *Plan may be
// executed concurrently.
//
// The plan alone fixes how its budget is split across its leaves.
// Affordable multi-leaf plans (total tariff within budget) run every leaf
// on its own goroutine, on the budget shares generation partitioned from
// the planner's tariff estimates (leafShares) — each share covers its leaf's
// data-independent access bound, so no leaf truncates and the α·|D|
// guarantee holds without threading a shared "remaining" counter through
// the leaves. A leaf reads at most its tariff (TestScheduleInvariance and
// TestSoundnessRandomQueries assert it of every concurrent leaf), so a
// concurrent pass answers as the in-order one would. Every other plan runs
// its leaves in order, each on the budget its predecessors left.
//
// Cancellation is cooperative: ctx is checked between leaf executions and
// inside each leaf (fetch steps, enumeration, batch fan-out, evaluation —
// see plan.ExecuteOpts), so a cancelled call returns ctx.Err() promptly
// instead of burning the rest of its budget. ExecOptions.Alpha/Budget are
// ignored here — the plan already carries its budget; the execution
// options (Fetcher, Tag, Trace, ExplainEta) apply.
func (s *Scheme) ExecuteContext(ctx context.Context, p *Plan, o ExecOptions) (*Answer, error) {
	start := time.Now()
	defer o.Trace.End()
	ans, err := s.executeOpts(ctx, p, o)
	if ans != nil {
		s.recordTag(o.Tag, ans.Stats.Accessed, time.Since(start), nil)
	} else {
		s.recordTag(o.Tag, 0, time.Since(start), err)
	}
	return ans, err
}

// executeOpts is ExecuteContext without the tag accounting. A panic
// anywhere in the evaluator surfaces as a typed *guard.PanicError instead
// of unwinding into the caller: one poisoned query must not take down a
// server (or a caller's worker) that is fine serving every other query.
func (s *Scheme) executeOpts(ctx context.Context, p *Plan, o ExecOptions) (ans *Answer, err error) {
	defer guard.Recover("query execution", &err)
	ex := o.Trace.Root().Child("execute")
	defer func() {
		if ans != nil {
			ans.ExecTrace = o.Trace
			ex.SetInt("budget", int64(p.Budget))
			ex.SetInt("accessed", int64(ans.Stats.Accessed))
			ex.SetFloat("eta", ans.Eta)
			ex.SetBool("exact", ans.Exact)
			ex.SetBool("truncated", ans.Stats.Truncated)
		}
		ex.End()
	}()
	ctx = obs.ContextWithSpan(ctx, ex)
	run := s.runInOrder
	if p.shares != nil {
		run = s.runConcurrent
	}
	results, err := run(ctx, p, o)
	if err != nil {
		return nil, err
	}
	return s.assemble(ctx, p, o, results)
}

// runLeaf executes leaf li of p on the given budget under its own "leaf"
// span. A panic inside the leaf is contained to the returned error, so a
// concurrent leaf's goroutine never unwinds past it; the span closes by
// defer, keeping the trace balanced either way.
func (s *Scheme) runLeaf(ctx context.Context, p *Plan, li, budget int, mode string, o ExecOptions) (r *plan.Result, err error) {
	defer guard.Recover("leaf execution", &err)
	ls := obs.SpanFrom(ctx).Child("leaf")
	defer ls.End()
	ls.SetInt("leaf", int64(li))
	ls.SetStr("mode", mode)
	ls.SetInt("budget", int64(budget))
	if ExecPanicHook != nil {
		ExecPanicHook()
	}
	r, err = plan.ExecuteOpts(obs.ContextWithSpan(ctx, ls), p.Leaves[li].Bounded, s.db, plan.ExecOpts{Budget: budget, Fetcher: o.Fetcher})
	if err == nil {
		ls.SetInt("accessed", int64(r.Stats.Accessed))
		ls.SetBool("truncated", r.Stats.Truncated)
	}
	return r, err
}

// runInOrder runs the leaves one after another, each on the budget its
// predecessors left, checking ctx between leaves. Results are in p.Leaves
// order.
func (s *Scheme) runInOrder(ctx context.Context, p *Plan, o ExecOptions) ([]*plan.Result, error) {
	results := make([]*plan.Result, len(p.Leaves))
	remaining := p.Budget
	for li := range p.Leaves {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := s.runLeaf(ctx, p, li, remaining, "seq", o)
		if err != nil {
			return nil, err
		}
		remaining = max(0, remaining-r.Stats.Accessed)
		results[li] = r
	}
	return results, nil
}

// runConcurrent runs every leaf on its own goroutine, each on its budget
// share (p.shares); the query's own leaves bound the goroutine count.
// Results are in p.Leaves order. Cancellation surfaces from the per-leaf
// executors; ctx.Err() is preferred over leaf errors so a cancelled call
// reports the cancellation, not a secondary failure.
func (s *Scheme) runConcurrent(ctx context.Context, p *Plan, o ExecOptions) ([]*plan.Result, error) {
	results := make([]*plan.Result, len(p.Leaves))
	errs := make([]error, len(p.Leaves))
	var wg sync.WaitGroup
	for li := range p.Leaves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[li], errs[li] = s.runLeaf(ctx, p, li, p.shares[li], "par", o)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// leafShares splits a generated plan's global budget across its leaves
// for concurrent execution: each leaf gets its tariff estimate, with the
// slack spread evenly. Shares sum to exactly p.Budget, which is what
// preserves the α·|D| bound under concurrent execution. Only an affordable
// multi-leaf plan (more than one leaf, total tariff ≤ budget) runs its
// leaves concurrently; for any other it returns nil.
func leafShares(p *Plan) []int {
	n := len(p.Leaves)
	if n < 2 || p.Tariff() > p.Budget {
		return nil
	}
	shares := make([]int, n)
	total := 0
	for li, l := range p.Leaves {
		shares[li] = l.Bounded.Tariff()
		total += shares[li]
	}
	slack := p.Budget - total
	for li := range shares {
		shares[li] += slack / n
	}
	for li := 0; li < slack%n; li++ {
		shares[li]++
	}
	return shares
}

// assemble combines executed leaves (in p.Leaves order) into the final
// Answer, summing their access statistics and re-checking ctx before the
// combine pass and before the η′ refinement (both can do real work —
// kd-tree probes — on large answer sets).
func (s *Scheme) assemble(ctx context.Context, p *Plan, o ExecOptions, results []*plan.Result) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.SpanFrom(ctx)
	ans := &Answer{}
	for _, r := range results {
		ans.Stats.Accessed += r.Stats.Accessed
		ans.Stats.Truncated = ans.Stats.Truncated || r.Stats.Truncated
	}
	cs := sp.Child("combine")
	out, err := s.combine(p, p.Expr, results)
	cs.End()
	if err != nil {
		return nil, err
	}
	cs.SetInt("rows", int64(out.Len()))
	ans.Rel = out

	ans.Eta = p.Eta
	refined := false
	if query.HasDiff(p.Expr) && !p.Exact {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rs := sp.Child("eta_refine")
		eta, err := s.refineEtaDiff(p, results, out)
		rs.End()
		if err != nil {
			return nil, err
		}
		rs.SetFloat("eta_prime", eta)
		ans.Eta = eta
		refined = true
	}
	ans.Exact = p.Exact && !ans.Stats.Truncated
	if ans.Exact {
		ans.Eta = 1
	} else if ans.Stats.Truncated {
		// The coverage guarantee is void once fetching is cut short.
		ans.Eta = 0
	}
	if o.ExplainEta {
		tr := p.Trace.clone()
		if tr == nil {
			tr = &BoundTrace{DRel: p.DRel, DCov: p.DCov}
		}
		if refined {
			tr.add(BoundStep{
				Rule: RuleEtaPrime, Leaf: -1, Subject: "difference", Eta: ans.Eta,
				Note: "post-execution refinement eta' = 1/(1+max(drel, d'+dcov(Q-hat))) (§6)",
			})
		}
		if ans.Exact {
			tr.add(BoundStep{
				Rule: RuleExact, Leaf: -1, Subject: "answer", Eta: 1,
				Note: "execution finished exactly within budget: answers are Q(D)",
			})
		} else if ans.Stats.Truncated {
			tr.add(BoundStep{
				Rule: RuleTruncated, Leaf: -1, Subject: "answer", Eta: 0,
				Note: "fetching was cut short by the budget backstop: coverage guarantee void",
			})
		}
		tr.Eta = ans.Eta
		ans.Trace = tr
	}
	return ans, nil
}

// AnswerContext plans and executes in one call under the call's options,
// consulting the plan cache (unless BypassCache) — a repeated (normalized
// query, α) pair skips the chase + chAT generation work entirely — and
// honouring ctx throughout execution. The returned plan is a per-call copy
// whose CacheHit field reports where it came from.
func (s *Scheme) AnswerContext(ctx context.Context, e query.Expr, o ExecOptions) (*Answer, *Plan, error) {
	start := time.Now()
	// The options owner ends the root span: every path out of this call
	// (including errors) leaves a fully timed trace.
	defer o.Trace.End()
	p, err := s.planFor(ctx, e, o)
	if err != nil {
		s.recordTag(o.Tag, 0, time.Since(start), err)
		return nil, nil, err
	}
	ans, err := s.executeOpts(ctx, p, o)
	if err != nil {
		s.recordTag(o.Tag, 0, time.Since(start), err)
		return nil, nil, err
	}
	s.recordTag(o.Tag, ans.Stats.Accessed, time.Since(start), nil)
	return ans, p, nil
}

// planFor returns a plan for the call, serving repeats from the LRU unless
// BypassCache. Concurrent misses on one key are coalesced: the first caller
// generates, the rest wait and share the result (as cache hits). The shared
// generation runs detached from any one caller's ctx — a cancelled waiter
// leaves with ctx.Err() while the flight completes for the others.
func (s *Scheme) planFor(ctx context.Context, e query.Expr, o ExecOptions) (*Plan, error) {
	ps := o.Trace.Root().Child("plan")
	defer ps.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.BypassCache {
		ps.SetBool("cache_bypass", true)
		p, err := s.PlanContext(ctx, e, o)
		if err == nil {
			ps.SetInt("budget", int64(p.Budget))
		}
		return p, err
	}
	alpha, budget, err := s.resolveBudget(o)
	if err != nil {
		return nil, err
	}
	key := planKey(e, alpha, budget)
	if v, ok := s.cache.Get(key); ok {
		hit := *v.(*Plan) // shallow copy: leaves are shared and immutable
		hit.CacheHit = true
		ps.SetBool("cache_hit", true)
		ps.SetInt("budget", int64(hit.Budget))
		return &hit, nil
	}
	ps.SetBool("cache_hit", false)

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		ps.SetBool("coalesced", true)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		hit := *f.p
		hit.CacheHit = true
		ps.SetInt("budget", int64(hit.Budget))
		return &hit, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	// Deregister and wake waiters even if generation panics — a wedged
	// flight would park every future caller of this key forever.
	defer func() {
		if f.p == nil && f.err == nil {
			f.err = fmt.Errorf("core: plan generation aborted")
		}
		close(f.done)
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
	}()
	// The flight's result is shared by every coalesced waiter, so generate
	// detached from this caller's cancellation.
	gs := ps.Child("generate")
	f.p, f.err = s.generateWithBudget(context.WithoutCancel(ctx), e, alpha, budget)
	gs.End()
	if f.err != nil {
		return nil, f.err
	}
	ps.SetInt("budget", int64(f.p.Budget))
	s.cache.Put(key, f.p)
	// Callers always get a private copy; the cached plan stays immutable
	// even if the caller tweaks the returned header.
	ret := *f.p
	return &ret, nil
}

// combine implements E(Q) of §6 over executed leaves: set semantics for
// union/difference, the dangerous-distance exclusion for approximate set
// difference, and (weighted) aggregation for group-by.
func (s *Scheme) combine(p *Plan, e query.Expr, results []*plan.Result) (*relation.Relation, error) {
	switch q := e.(type) {
	case *query.SPC:
		li := p.leafIndex(q)
		if li < 0 {
			return nil, fmt.Errorf("core: leaf not executed")
		}
		return results[li].Rel.Distinct(), nil
	case *query.Union:
		l, err := s.combine(p, q.L, results)
		if err != nil {
			return nil, err
		}
		r, err := s.combine(p, q.R, results)
		if err != nil {
			return nil, err
		}
		return l.UnionDistinct(r), nil
	case *query.Diff:
		return s.combineDiff(p, q, results)
	case *query.GroupBy:
		return s.combineGroupBy(p, q, results)
	default:
		return nil, fmt.Errorf("core: unknown expression %T", e)
	}
}

// combineDiff enforces Q1 − Q2. When Q2's data was fetched exactly, plain
// set difference applies; otherwise E(Q) = E(Q1) − π σ_C (E(Q1) × E(Q̂2)):
// answers within the "dangerous distance" δ(A) of the approximate Q̂2
// answers are excluded, so no tuple of Q2(D) survives (Theorem 6(5)).
func (s *Scheme) combineDiff(p *Plan, q *query.Diff, results []*plan.Result) (*relation.Relation, error) {
	l, err := s.combine(p, q.L, results)
	if err != nil {
		return nil, err
	}
	if s.sideExact(p, q.R) {
		r, err := s.combine(p, q.R, results)
		if err != nil {
			return nil, err
		}
		// Position i of drop is r.Tuples[i]: r is a set (combine's
		// answers are), so inserting needs no equality test.
		var drop relation.ProbeTable
		drop.Grow(r.Len())
		for _, t := range r.Tuples {
			drop.Insert(t.Hash(), func(int) bool { return false })
		}
		out := relation.NewRelation(l.Schema)
		for _, t := range l.Tuples {
			if _, ok := drop.Find(t.Hash(), func(p int) bool { return r.Tuples[p].KeyEqual(t) }); !ok {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	}
	// Approximate right-hand side: evaluate the maximal induced query and
	// exclude within the dangerous distances.
	rHatExpr := query.MaxInduced(q.R)
	rHat, err := s.combine(p, rHatExpr, results)
	if err != nil {
		return nil, err
	}
	delta, attrs, err := s.dangerousDistances(p, rHatExpr)
	if err != nil {
		return nil, err
	}
	// Probe a K-D tree over the approximate answers (§4.1's tree
	// structures, reused online) once per left answer.
	out := relation.NewRelation(l.Schema)
	ts := treeScratchPool.Get()
	tree := ts.treeOf(attrs, rHat)
	for _, t := range l.Tuples {
		if !tree.AnyWithin(t, delta) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	putTreeScratch(ts)
	return out, nil
}

// treeScratch is the working memory of one K-D tree over an answer set:
// the block of its points and the tree's build scratch. A tree lives in
// its treeScratch, so a caller takes one from treeScratchPool and returns
// it (putTreeScratch) only once it is done with the tree.
type treeScratch struct {
	points relation.Block
	build  kdtree.Scratch
}

// treeScratchPool holds up to four idle tree scratches, each with a point
// block of at most maxPooledTreeBytes (freelist).
var treeScratchPool = freelist.New[treeScratch](4)

// maxPooledTreeBytes bounds the point block of a pooled tree scratch; the
// kd-tree buffers it keeps grow with the same points.
const maxPooledTreeBytes = 1 << 20

// putTreeScratch returns ts to the pool, or drops it when an answer grew
// it beyond maxPooledTreeBytes.
func putTreeScratch(ts *treeScratch) {
	if ts.points.RetainedBytes() <= maxPooledTreeBytes {
		treeScratchPool.Put(ts)
	}
}

// treeOf builds a K-D tree over a relation's tuples, whose attributes attrs
// describes, in the scratch's memory: the tree is valid until the
// scratch's next treeOf.
func (ts *treeScratch) treeOf(attrs []relation.Attribute, r *relation.Relation) *kdtree.Tree {
	ts.points.Reset(len(attrs))
	for _, t := range r.Tuples {
		ts.points.AppendTuple(t)
	}
	return ts.build.Build(attrs, &ts.points, 0, r.Len())
}

// sideExact reports whether every leaf under e fetched with resolution 0.
func (s *Scheme) sideExact(p *Plan, e query.Expr) bool {
	for _, leaf := range query.SPCLeaves(e) {
		if li := p.leafIndex(leaf); li >= 0 && !p.Leaves[li].exact() {
			return false
		}
	}
	return true
}

// dangerousDistances computes δ(A) per output attribute of the expression:
// the worst fetch resolution of that column across the leaves. The
// expression has no group-by, so its output attributes are those of its
// first leaf.
func (s *Scheme) dangerousDistances(p *Plan, e query.Expr) ([]float64, []relation.Attribute, error) {
	var delta []float64
	var attrs []relation.Attribute
	for _, leaf := range query.SPCLeaves(e) {
		li := p.leafIndex(leaf)
		if li < 0 {
			return nil, nil, fmt.Errorf("core: leaf not planned")
		}
		b := p.Leaves[li].Bounded
		if attrs == nil {
			attrs = b.Chase.Leaf.Schema.Attrs
			delta = make([]float64, len(attrs))
		}
		// Validation gave every leaf of e the same arity.
		for i, col := range b.Chase.Leaf.Output {
			delta[i] = max(delta[i], b.Resolution(col.Atom, col.Index))
		}
	}
	return delta, attrs, nil
}

// combineGroupBy aggregates over the child. When the child is a single SPC
// leaf the count annotations of the fetched samples weight the aggregate
// (§7's extension for sum/count/avg); over union/difference results the
// weights are no longer derivable and rows count once (documented
// approximation).
func (s *Scheme) combineGroupBy(p *Plan, q *query.GroupBy, results []*plan.Result) (*relation.Relation, error) {
	var rows *relation.Relation
	var weights []int
	if leaf, ok := q.In.(*query.SPC); ok {
		r := results[p.leafIndex(leaf)]
		rows = r.Rel
		weights = r.Weights
	} else {
		set, err := s.combine(p, q.In, results)
		if err != nil {
			return nil, err
		}
		rows = set
		weights = make([]int, set.Len())
		for i := range weights {
			weights[i] = 1
		}
	}

	type groupAgg struct {
		key      relation.Tuple
		count    int
		sum      float64
		min, max relation.Value
		seen     bool
	}
	var byKey relation.ProbeTable
	var groups []groupAgg
	// A row is hashed and compared on its own key positions; only a row
	// that opens a group has its key projected.
	for ri, t := range rows.Tuples {
		gi, added := byKey.Insert(t.HashCols(p.keyIdx), func(g int) bool {
			for i, j := range p.keyIdx {
				if !groups[g].key[i].KeyEqual(t[j]) {
					return false
				}
			}
			return true
		})
		if added {
			groups = append(groups, groupAgg{key: t.Project(p.keyIdx)})
		}
		g := &groups[gi]
		w := weights[ri]
		v := t[p.onIdx]
		g.count += w
		if f, okF := v.AsFloat(); okF {
			g.sum += f * float64(w)
		} else if q.Agg == query.AggSum || q.Agg == query.AggAvg {
			return nil, fmt.Errorf("core: %v of non-numeric value %v", q.Agg, v)
		}
		if !g.seen {
			g.min, g.max, g.seen = v, v, true
		} else {
			if v.Less(g.min) {
				g.min = v
			}
			if g.max.Less(v) {
				g.max = v
			}
		}
	}

	out := relation.NewRelation(p.schema)
	for _, g := range groups {
		var agg relation.Value
		switch q.Agg {
		case query.AggCount:
			agg = relation.Int(int64(g.count))
		case query.AggSum:
			agg = relation.Float(g.sum)
		case query.AggAvg:
			agg = relation.Float(g.sum / float64(g.count))
		case query.AggMin:
			agg = g.min
		default:
			agg = g.max
		}
		t := make(relation.Tuple, 0, len(g.key)+1)
		t = append(append(t, g.key...), agg)
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// refineEtaDiff computes η′ of §6: executing the α-bounded plan ξ̂α of the
// maximal induced query Q̂ (its leaves are shared, so no extra fetching),
// measuring the coverage gap d′ between Ŝ and S, and combining with the
// triangle inequality: η′ = 1/(1 + max(drel, d′ + d̂cov)).
func (s *Scheme) refineEtaDiff(p *Plan, results []*plan.Result, out *relation.Relation) (float64, error) {
	hatExpr := query.MaxInduced(p.Expr)
	hat, err := s.combine(p, hatExpr, results)
	if err != nil {
		return 0, err
	}
	_, hatCov := s.bound(p, hatExpr)
	if hat.Len() == 0 {
		return etaOf(p.DRel, hatCov), nil
	}
	// d′ is the largest distance from an Ŝ tuple to its nearest answer,
	// searched through a K-D tree over the answers: the attribute
	// distances are symmetric metrics, so MinMaxDistance(t) is the min over
	// answers of TupleDistance (+inf when there are none). A tuple with an
	// answer within the running d′ cannot raise the maximum, so only the
	// others pay for the nearest-answer search, and none does once d′ is
	// +inf: d′ is the same maximum, found with less search. For a finite
	// d′, AnyWithin with d′ on every attribute is that test — some answer
	// at TupleDistance ≤ d′ — stopping at the first such answer.
	dPrime := 0.0
	within := make([]float64, len(hat.Schema.Attrs)) // d′ on every attribute
	ts := treeScratchPool.Get()
	tree := ts.treeOf(hat.Schema.Attrs, out)
	for _, t := range hat.Tuples {
		if math.IsInf(dPrime, 1) {
			break
		}
		if tree.AnyWithin(t, within) {
			continue
		}
		if best := tree.MinMaxDistance(t); best > dPrime {
			dPrime = best
			for i := range within {
				within[i] = dPrime
			}
		}
	}
	putTreeScratch(ts)
	return etaOf(p.DRel, dPrime+hatCov), nil
}
