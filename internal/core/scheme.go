// Package core implements BEAS's resource-bounded approximation schemes —
// the paper's primary contribution (§4–§7): BEAS_SPC (chase-derived fetch
// plans, relaxed evaluation plans and the chAT template-upgrading procedure
// with the accuracy lower-bound function L), BEAS_RA (max-SPC decomposition
// and set difference via maximal induced queries with a post-hoc bound η′)
// and BEAS_agg (group-by over count-annotated fetches).
//
// Given a query Q, a resource ratio α and an access schema A ⊇ At, the
// scheme produces an α-bounded plan ξα and a deterministic RC accuracy
// lower bound η without accessing the data (Theorem 1); executing the plan
// touches at most α|D| tuples.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/chase"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/query"
	"repro/internal/relation"
)

// Scheme is the resource-bounded approximation scheme ΓA of §4.1,
// instantiated for one database and one access schema.
//
// A Scheme is safe for concurrent use: the database and access-schema
// indices are treated as immutable after New, generated plans are immutable
// after PlanContext returns, and every execution builds its own per-call
// state. The online path (PlanContext / ExecuteContext / AnswerContext) may
// therefore be shared by any number of goroutines serving queries over one
// prepared database — the serving architecture of Fig. 2.
type Scheme struct {
	db *relation.Database
	as *access.Schema
	// cache memoises generated plans by (normalized query, α, budget).
	cache *plancache.Cache
	// flights coalesces concurrent cache misses on one key so a stampede
	// of identical queries pays for a single plan generation.
	flightMu sync.Mutex
	flights  map[string]*flight

	// tagMu guards tags, the per-tag serving counters fed by ExecOptions.Tag.
	tagMu sync.Mutex
	tags  map[string]*TagStats
}

// TagStats aggregates the executions attributed to one ExecOptions.Tag.
type TagStats struct {
	// Queries counts successful executions.
	Queries int64
	// Errors counts failed executions (including plan-generation failures).
	Errors int64
	// Accessed sums tuples accessed by successful executions.
	Accessed int64
	// Total is the cumulative wall time of successful executions.
	Total time.Duration
}

// ExecOptions are the per-call options of the context-first entry points
// (PlanContext, ExecuteContext, AnswerContext). The zero
// value is not runnable: either Alpha or Budget must bound the call.
type ExecOptions struct {
	// Alpha is the resource ratio α ∈ (0, 1]; ignored when Budget > 0.
	Alpha float64
	// MinAlpha, when > 0, is the floor below which overload degradation may
	// not shrink this call's α: the effective ratio is max(Alpha, MinAlpha).
	// It is the caller's accuracy SLO — brownout can trade accuracy for
	// admission, but never past this line. Ignored when Budget > 0.
	MinAlpha float64
	// Budget, when > 0, is an absolute tuple budget that replaces α·|D|
	// (the reported Alpha becomes Budget/|D|, capped at 1).
	Budget int
	// Fetcher, when non-nil, resolves every fetch-step batch through the
	// routing layer instead of the in-process ladder lookups (the
	// cluster seam — see plan.ExecOpts.Fetcher). Answers, η and budget
	// accounting are byte-identical to local execution; a fetch the router
	// cannot complete surfaces as its typed error (never a silently partial
	// answer).
	Fetcher plan.RemoteFetcher
	// BypassCache skips the plan cache entirely (no lookup, no insert).
	BypassCache bool
	// ExplainEta attaches the full bound-derivation trace (BoundTrace) to
	// the Answer, extended with execution-stage overrides. Generation
	// derives η without a trace; this flag re-derives it, rule by rule,
	// over the finished plan.
	ExplainEta bool
	// Tag attributes this call in the scheme's per-tag stats (TagStats).
	Tag string
	// Trace, when non-nil, collects a query-scoped span tree: plan-cache
	// lookup, plan generation, each leaf and fetch step (per cluster peer
	// when routed), combine and η′ refinement open timed child spans under
	// its root, each annotated with tuples accessed vs. budget, the
	// resolution level served and its η contribution. Nil (the default) disables
	// tracing; the disabled cost is one context lookup plus a nil check per
	// instrumentation point. The entry point that receives the options ends
	// the root span, so Answer.ExecTrace is fully timed when the call
	// returns.
	Trace *obs.Trace
}

// flight is one in-progress plan generation awaited by late arrivals.
type flight struct {
	done chan struct{}
	p    *Plan
	err  error
}

// New builds a scheme with a plancache.DefaultCapacity plan cache. The
// access schema should subsume At (use access.BuildAt plus extensions); the
// chase fails on queries it cannot cover otherwise.
func New(db *relation.Database, as *access.Schema) *Scheme {
	return &Scheme{
		db:      db,
		as:      as,
		cache:   plancache.New(plancache.DefaultCapacity),
		flights: make(map[string]*flight),
	}
}

// InvalidatePlans drops every cached plan. Call after maintenance mutates
// the database: generated plans bake in budgets derived from |D| and
// template levels derived from the ladder metadata, both of which an
// insert or delete can change.
func (s *Scheme) InvalidatePlans() { s.cache.Purge() }

// CacheStats returns the plan cache's effectiveness counters.
func (s *Scheme) CacheStats() plancache.Stats { return s.cache.Stats() }

// PlanCacheCounters exposes the plan cache's effectiveness instruments for
// metrics registration (obs.Registry.RegisterCounter). Reads still go
// through CacheStats.
func (s *Scheme) PlanCacheCounters() (hits, misses, evictions *obs.Counter) {
	return s.cache.Counters()
}

// TagStatsSnapshot returns a copy of the per-tag serving counters recorded
// for calls that set ExecOptions.Tag.
func (s *Scheme) TagStatsSnapshot() map[string]TagStats {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	out := make(map[string]TagStats, len(s.tags))
	for tag, st := range s.tags {
		out[tag] = *st
	}
	return out
}

// recordTag folds one attributed execution into the tag's counters.
func (s *Scheme) recordTag(tag string, accessed int, took time.Duration, err error) {
	if tag == "" {
		return
	}
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	if s.tags == nil {
		s.tags = make(map[string]*TagStats)
	}
	st := s.tags[tag]
	if st == nil {
		st = &TagStats{}
		s.tags[tag] = st
	}
	if err != nil {
		st.Errors++
		return
	}
	st.Queries++
	st.Accessed += int64(accessed)
	st.Total += took
}

// appendPlanKey appends the plan-cache key of a (query, α, budget) triple
// to dst: α|budget|Render(e), with |ds=… for a group-by's DistScale, the
// one semantic field Render omits (it is presentation-free). Rendering is
// deterministic and injective for a given expression tree, so structurally
// equal queries share one cached plan regardless of how they were
// constructed. Into a buffer with room it allocates nothing.
func appendPlanKey(dst []byte, e query.Expr, alpha float64, budget int) []byte {
	dst = strconv.AppendFloat(dst, alpha, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(budget), 10)
	dst = append(dst, '|')
	dst = query.AppendRender(dst, e)
	if g, ok := e.(*query.GroupBy); ok && g.DistScale > 0 {
		dst = append(dst, "|ds="...)
		dst = strconv.AppendFloat(dst, g.DistScale, 'g', -1, 64)
	}
	return dst
}

// DB returns the underlying database.
func (s *Scheme) DB() *relation.Database { return s.db }

// Access returns the access schema.
func (s *Scheme) Access() *access.Schema { return s.as }

// LeafPlan is the bounded plan of one max SPC sub-query.
type LeafPlan struct {
	SPC     *query.SPC
	Bounded *plan.Bounded
}

// Plan is an α-bounded plan ξα for a query, with its estimated accuracy
// lower bound η (Theorems 5 and 6).
type Plan struct {
	Expr   query.Expr
	Class  query.Class
	Alpha  float64
	Budget int
	// Eta is the deterministic accuracy lower bound estimated without
	// accessing the data. For queries with set difference the executed
	// answer carries the refined η′ of §6.
	Eta float64
	// DRel and DCov decompose L's bound: Eta = 1/(1+max(DRel, DCov)).
	DRel, DCov float64
	// Exact reports that the plan computes exact answers (bounded
	// evaluability within budget, or templates upgraded to resolution 0̄).
	Exact bool
	// Leaves are the bounded plans of the max SPC sub-queries, one per
	// distinct *query.SPC in query.SPCLeaves order of first occurrence.
	Leaves []*LeafPlan
	// GenTime is how long plan generation took (Exp-5).
	GenTime time.Duration
	// CacheHit reports that Answer served this plan from the scheme's plan
	// cache instead of regenerating it. It is set on a per-call copy of the
	// plan header, so cached plans stay immutable under concurrency.
	CacheHit bool

	// schema is Expr's output schema, computed once by validation. For a
	// group-by, keyIdx and onIdx place its keys and its aggregated column
	// in the child's output, whose columns are those of the first leaf.
	schema *relation.Schema
	keyIdx []int
	onIdx  int
	// shares are the leaves' budget shares when they run concurrently
	// (leafShares), nil when they run in order. Fixed at generation.
	shares []int
}

// leafIndex returns the index in p.Leaves of the leaf planned for q, or -1
// when q is not one of the plan's leaves.
func (p *Plan) leafIndex(q *query.SPC) int {
	for i, l := range p.Leaves {
		if l.SPC == q {
			return i
		}
	}
	return -1
}

// Tariff returns the plan's estimated data access. Per-leaf tariffs
// saturate near MaxInt (chase caps them rather than overflow), so the sum
// saturates too.
func (p *Plan) Tariff() int {
	total := 0
	for _, l := range p.Leaves {
		total = satAddTariff(total, l.Bounded.Tariff())
	}
	return total
}

// satAddTariff adds tariff estimates without wrapping: chase saturates
// individual tariffs at MaxInt/4, so a handful of saturated leaves would
// otherwise overflow negative and sneak past budget gates.
func satAddTariff(a, b int) int {
	const limit = math.MaxInt / 2
	if a > limit-b {
		return limit
	}
	return a + b
}

// PlanContext computes a resource-bounded plan for the query (component C3
// of the BEAS architecture, Fig. 2) under the call's options (alpha- or
// absolute-budget bound), without consulting the plan cache. Plan
// generation is pure metadata work — only the query, the access schema's
// metadata and the budget are consulted, never the data — so ctx is only
// checked between chase passes.
func (s *Scheme) PlanContext(ctx context.Context, e query.Expr, o ExecOptions) (*Plan, error) {
	alpha, budget, err := s.resolveBudget(o)
	if err != nil {
		return nil, err
	}
	return s.generateWithBudget(ctx, e, alpha, budget)
}

// resolveBudget turns the call options into the (alpha, budget) pair the
// planner works with: an explicit Budget wins, otherwise Alpha must be a
// valid resource ratio and the budget is ⌊α·|D|⌋.
func (s *Scheme) resolveBudget(o ExecOptions) (float64, int, error) {
	if o.Budget > 0 {
		size := s.db.Size()
		if size < 1 {
			size = 1
		}
		alpha := float64(o.Budget) / float64(size)
		if alpha > 1 {
			alpha = 1
		}
		return alpha, o.Budget, nil
	}
	if o.MinAlpha < 0 || o.MinAlpha > 1 {
		return 0, 0, fmt.Errorf("core: minimum resource ratio minAlpha=%g outside [0, 1]", o.MinAlpha)
	}
	alpha := o.Alpha
	if alpha < o.MinAlpha {
		// The floor is the caller's accuracy SLO: degradation (or a typo'd
		// request) may not push the effective ratio below it.
		alpha = o.MinAlpha
	}
	if alpha <= 0 || alpha > 1 {
		return 0, 0, fmt.Errorf("core: resource ratio alpha=%g outside (0, 1]", alpha)
	}
	return alpha, int(alpha * float64(s.db.Size())), nil
}

// generateWithBudget validates the query, resolving each distinct leaf
// once, and plans it.
func (s *Scheme) generateWithBudget(ctx context.Context, e query.Expr, alpha float64, budget int) (*Plan, error) {
	start := time.Now()
	sch, leaves, err := query.Validate(e, s.db)
	if err != nil {
		return nil, err
	}
	p, err := s.generate(ctx, e, sch, leaves, alpha, budget)
	if err != nil {
		return nil, err
	}
	p.GenTime = time.Since(start)
	return p, nil
}

// generate plans a validated query whose output schema is sch from its
// resolved distinct leaves (query.Validate), which the chase reuses.
func (s *Scheme) generate(ctx context.Context, e query.Expr, sch *relation.Schema, leaves []*query.Resolved, alpha float64, budget int) (*Plan, error) {
	p := &Plan{Expr: e, Class: query.Classify(e), Alpha: alpha, Budget: budget, schema: sch}

	// Step 1 (BEAS_SPC / BEAS_RA): chase every max SPC sub-query into an
	// initial bounded plan, sharing the budget evenly for constraint
	// affordability decisions.
	share := budget / len(leaves)
	for _, leaf := range leaves {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := chase.ChaseResolved(leaf, s.as, share)
		if err != nil {
			return nil, err
		}
		p.Leaves = append(p.Leaves, &LeafPlan{SPC: leaf.Q, Bounded: plan.NewBounded(res, budget)})
	}

	if g, ok := e.(*query.GroupBy); ok {
		child := p.Leaves[0].Bounded.Chase.Leaf.Schema
		for _, k := range g.Keys {
			p.keyIdx = append(p.keyIdx, child.MustIndex(k.Name()))
		}
		p.onIdx = child.MustIndex(g.On.Name())
	}

	// Step 2: chAT — upgrade access-template levels to maximise accuracy
	// while the total tariff stays within the budget.
	s.chAT(p)

	// The bound is derived untraced; ExplainEta re-derives it with its
	// trace over the finished plan (boundTrace).
	p.DRel, p.DCov = s.bound(p, e)
	p.Eta = etaOf(p.DRel, p.DCov)
	p.Exact = s.isExact(p)
	if p.Exact {
		p.Eta = 1
	} else if g, ok := e.(*query.GroupBy); ok {
		switch g.Agg {
		case query.AggSum, query.AggCount, query.AggAvg:
			// Corollary 7 extends the bounds of Theorem 6 to min and
			// max only; for sum/count/avg the aggregate-value error
			// depends on the data (how many base tuples each sample
			// stands for), so no non-trivial deterministic bound can
			// be stated from the schema alone. Report the honest 0.
			p.Eta = 0
		}
	}
	p.shares = leafShares(p)
	return p, nil
}

// etaOf turns L's distance decomposition into the bound η.
func etaOf(drel, dcov float64) float64 {
	d := math.Max(drel, dcov)
	if math.IsInf(d, 1) {
		return 0
	}
	return 1 / (1 + d)
}

// isExact reports whether every leaf resolves exactly under the current
// level assignment.
func (s *Scheme) isExact(p *Plan) bool {
	for _, l := range p.Leaves {
		if !l.exact() {
			return false
		}
	}
	return true
}

// exact reports whether every used attribute of the leaf resolves with
// resolution 0 under its current level assignment.
func (l *LeafPlan) exact() bool {
	b := l.Bounded
	for ai := range l.SPC.Atoms {
		for _, attr := range b.Chase.UsedAttrs(ai) {
			if b.Resolution(ai, attr) != 0 {
				return false
			}
		}
	}
	return true
}

// --- chAT: choosing access templates (§5, Fig. 3) -----------------------

type upgrade struct {
	leaf, step int
}

// chAT greedily upgrades the template step whose next level yields the
// best improvement of the lower-bound function L, while the estimated
// tariff of the whole fetch plan stays within the budget. A probe bounds
// the plan with the probed leaf's resolution table filled into a scratch
// table; a committed upgrade refreshes the leaf's own table.
func (s *Scheme) chAT(p *Plan) {
	var scratch []float64
	for {
		curRel, curCov := s.planBound(p, p.Expr)
		curD := math.Max(curRel, curCov)
		curRes := s.totalResolution(p)

		var best *upgrade
		bestD, bestRes := curD, curRes
		for li, l := range p.Leaves {
			b := l.Bounded
			for si := range b.Chase.Steps {
				st := &b.Chase.Steps[si]
				if st.Pinned || b.Ks[si] >= st.Ladder.MaxK() {
					continue
				}
				b.Ks[si]++
				if p.Tariff() <= p.Budget {
					committed := b.Res
					scratch = slices.Grow(scratch[:0], len(committed))[:len(committed)]
					b.Chase.Resolutions(b.Ks, scratch)
					b.Res = scratch
					dRel, dCov := s.planBound(p, p.Expr)
					b.Res = committed
					d := math.Max(dRel, dCov)
					res := s.totalResolution(p)
					// Any affordable upgrade is acceptable; a
					// bound-improving one is preferred.
					if betterBound(d, res, bestD, bestRes) {
						bestD, bestRes = d, res
						best = &upgrade{li, si}
					} else if best == nil {
						best = &upgrade{li, si}
					}
				}
				b.Ks[si]--
			}
		}
		if best == nil {
			return
		}
		b := p.Leaves[best.leaf].Bounded
		b.SetLevel(best.step, b.Ks[best.step]+1)
	}
}

// betterBound compares (D, total resolution) lexicographically with
// +inf-awareness: clamped resolutions make progress visible even while the
// headline bound is still infinite.
func betterBound(d, res, bestD, bestRes float64) bool {
	if d != bestD {
		return d < bestD
	}
	return res < bestRes-1e-12
}

const resClamp = 1e6

// totalResolution sums the (clamped) per-step maximal resolutions: a
// secondary objective that keeps chAT spending budget on real resolution
// gains when L's max-based bound is saturated.
func (s *Scheme) totalResolution(p *Plan) float64 {
	total := 0.0
	for _, l := range p.Leaves {
		for si, st := range l.Bounded.Chase.Steps {
			k := st.K
			if !st.Pinned {
				k = l.Bounded.Ks[si]
			}
			r := st.Ladder.MaxResolution(k)
			if r > resClamp {
				r = resClamp
			}
			total += r
		}
	}
	return total
}

// --- the lower-bound function L (§5, §6, §7) ----------------------------

// bound computes L's (drel, dcov) decomposition for the expression under
// the current level assignments, inductively on the query structure:
//
//	leaf SPC:    dcov = max resolution over output columns, pushed to +inf
//	             by exactly-enforced joins over unbounded-resolution
//	             columns (the coverage-void rule — see leafBound);
//	             drel = max over predicates of the relaxation the plan
//	             applies (resolution of the attribute; half-sum for joins)
//	union:       component-wise max
//	difference:  the bounds of Q1 (refined post-execution into η′)
//	group-by:    the bounds of the child (min/max inherit exactly, §7;
//	             for sum/count/avg the value error is data-dependent and
//	             η is an estimate on keys and relevance)
//
// This is the reported bound: what the plan's η is derived from.
func (s *Scheme) bound(p *Plan, e query.Expr) (drel, dcov float64) {
	return s.boundRec(p, e, false, nil)
}

// planBound is chAT's optimisation objective: the bound without the
// coverage-void rule. The void depends only on which join columns resolve
// at unbounded resolution — a property the greedy single-level upgrades
// chAT explores essentially never change (a trivial-distance column leaves
// +inf only at its ladder's exact level, which the secondary resolution
// objective already steers toward when affordable). Optimising the finite
// part keeps the established level choices (and therefore the answers)
// identical to the pre-fix planner; only the *reported* η gets honest.
func (s *Scheme) planBound(p *Plan, e query.Expr) (drel, dcov float64) {
	return s.boundRec(p, e, true, nil)
}

// boundRec is the shared implementation of bound and planBound; a non-nil
// tr records every rule application into a BoundTrace.
func (s *Scheme) boundRec(p *Plan, e query.Expr, planning bool, tr *BoundTrace) (drel, dcov float64) {
	switch q := e.(type) {
	case *query.SPC:
		return s.leafBound(p, q, planning, tr)
	case *query.Union:
		lr, lc := s.boundRec(p, q.L, planning, tr)
		rr, rc := s.boundRec(p, q.R, planning, tr)
		if tr != nil {
			tr.add(BoundStep{
				Rule: RuleUnionMax, Leaf: -1, Subject: "union",
				Inputs: []float64{lr, lc, rr, rc},
				DRel:   math.Max(lr, rr), DCov: math.Max(lc, rc), Eta: -1,
				Note: "union takes the component-wise max of both sides' bounds",
			})
		}
		return math.Max(lr, rr), math.Max(lc, rc)
	case *query.Diff:
		dr, dc := s.boundRec(p, q.L, planning, tr)
		if tr != nil {
			tr.add(BoundStep{
				Rule: RuleDiffLeft, Leaf: -1, Subject: "difference",
				Inputs: []float64{dr, dc}, DRel: dr, DCov: dc, Eta: -1,
				Note: "difference uses Q1's bounds; execution refines them into eta' (§6)",
			})
		}
		return dr, dc
	case *query.GroupBy:
		dr, dc := s.boundRec(p, q.In, planning, tr)
		if tr != nil {
			st := BoundStep{
				Rule: RuleGroupByDataDep, Leaf: -1,
				Subject: fmt.Sprintf("%s(%s) by %s", q.Agg, q.On.String(), renderCols(q.Keys)),
				Inputs:  []float64{dr, dc}, Eta: 0,
				Note: "sum/count/avg value error is data-dependent; no deterministic bound, eta = 0",
			}
			if q.Agg == query.AggMin || q.Agg == query.AggMax {
				st.Rule, st.Eta = RuleGroupByMinMax, -1
				st.Note = "min/max group-by inherits the child's bounds unchanged (Corollary 7)"
			}
			tr.add(st)
		}
		return dr, dc
	default:
		return math.Inf(1), math.Inf(1)
	}
}

// renderCols joins column names for trace subjects.
func renderCols(cols []query.Col) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ","
		}
		out += c.String()
	}
	return out
}

// leafBound derives one SPC leaf's (drel, dcov) from the fetch plan's
// per-attribute resolutions.
//
// Soundness sketch (Theorems 5/6). Coverage: each exact witness tuple has
// a fetched covering sample within every used attribute's resolution, so
// the answer set covers Q(D) within dcov = max output-column resolution —
// PROVIDED the covering combination survives every predicate. Constant
// predicates and finite-tolerance joins are relaxed by exactly enough to
// admit it: a constant selection σ A=c relaxes to dis(A,c) ≤ res(A), and a
// join A=B relaxes to dis(A,B) ≤ res(A)+res(B) (executor tolerance is the
// half-sum because Pred.Violation reports d/2), which admits the covering
// pair since each side moved at most its own resolution. Relevance: every
// admitted combination satisfies the query relaxed by at most the largest
// applied relaxation, so drel = max over predicates.
//
// The exception — and the PR-6 fix — is a join whose tolerance is
// infinite. The executor enforces such joins *exactly*, which keeps them
// out of drel (nothing spurious is admitted) but breaks the coverage
// argument: the covering sample of a witness carries an arbitrary value on
// an unbounded-resolution column and need not satisfy the exact join, so
// no finite dcov is derivable and the leaf's coverage bound is void
// (dcov = +inf, η = 0). The one sound exception is a join the fetch plan
// guarantees by construction: when one side's column is fetched as a
// ladder X attribute sourced from the other side's column, every fetched
// row carries the exact join value of some fetched partner row, so the
// covering combination always survives (joinFetchCorrelated).
func (s *Scheme) leafBound(p *Plan, q *query.SPC, planning bool, tr *BoundTrace) (drel, dcov float64) {
	leafIdx := p.leafIndex(q)
	if leafIdx < 0 {
		return math.Inf(1), math.Inf(1)
	}
	lp := p.Leaves[leafIdx]
	c := lp.Bounded.Chase
	res := func(b query.Binding) float64 {
		return lp.Bounded.Resolution(b.Atom, b.Index)
	}
	for _, b := range c.Leaf.Output {
		r := res(b)
		if r > dcov {
			dcov = r
		}
		if tr != nil {
			tr.add(BoundStep{
				Rule: RuleOutputResolution, Leaf: leafIdx, Subject: b.Col.String(),
				Inputs: []float64{r}, DCov: r, Eta: -1,
				Note: "coverage is bounded by the worst output-column fetch resolution",
			})
		}
	}
	for pi, pd := range q.Preds {
		pb := c.Leaf.Preds[pi]
		if pd.Join {
			rl, rr := res(pb.Left), res(pb.Right)
			half := (rl + rr) / 2
			if math.IsInf(half, 1) {
				// Exactly-enforced join: no relevance contribution, but
				// coverage is void unless the fetch correlates the sides.
				correlated := joinFetchCorrelated(c, pb)
				if !correlated && !planning {
					dcov = math.Inf(1)
				}
				if tr != nil {
					subject := pd.Left.String() + " " + pd.Op.String() + " " + pd.Right.String()
					tr.add(BoundStep{
						Rule: RuleJoinExactEnforced, Leaf: leafIdx, Subject: subject,
						Inputs: []float64{rl, rr}, Eta: -1,
						Note: "infinite tolerance: the executor enforces this join exactly, so it admits nothing spurious",
					})
					st := BoundStep{
						Rule: RuleJoinFetchCorrelated, Leaf: leafIdx, Subject: subject,
						Inputs: []float64{rl, rr}, Eta: -1,
						Note: "one side's fetch draws its X values from the other side's rows, so every fetched row has a fetched join partner: coverage survives",
					}
					if !correlated {
						st.Rule, st.DCov = RuleJoinCoverageVoid, math.Inf(1)
						st.Note = "covering samples carry arbitrary values on an unbounded-resolution join column and need not survive the exact join: coverage bound void"
					}
					tr.add(st)
				}
				continue
			}
			if half > drel {
				drel = half
			}
			if tr != nil {
				tr.add(BoundStep{
					Rule: RuleJoinHalfSum, Leaf: leafIdx, Subject: pd.Left.String() + " " + pd.Op.String() + " " + pd.Right.String(),
					Inputs: []float64{rl, rr}, DRel: half, Eta: -1,
					Note: "join relaxed to dis(left,right) <= res(left)+res(right); Violation reports half the distance",
				})
			}
			continue
		}
		r := res(pb.Left)
		if r > drel {
			drel = r
		}
		if tr != nil {
			rule := RuleConstRelaxation
			note := "constant predicate relaxed by the attribute's fetch resolution"
			if math.IsInf(r, 1) {
				rule = RuleConstUnbounded
				note = "attribute fetched with unbounded resolution: the predicate cannot be filtered, relevance bound void"
			}
			tr.add(BoundStep{
				Rule: rule, Leaf: leafIdx, Subject: pd.Left.String() + " " + pd.Op.String() + " const",
				Inputs: []float64{r}, DRel: r, Eta: -1, Note: note,
			})
		}
	}
	return drel, dcov
}

// joinFetchCorrelated reports whether the fetch plan guarantees the join
// by construction: the covering step of one side's column fetches that
// very column as a ladder X attribute whose source is the other side's
// column (in either orientation). Such a step's groups are keyed by exact
// values drawn from the source side's fetched rows, so the exactly
// enforced join always finds the fetched partner and the coverage
// argument goes through despite the infinite tolerance.
func joinFetchCorrelated(c *chase.Result, pb query.PredBinding) bool {
	return xSourcedFrom(c, pb.Right, pb.Left) || xSourcedFrom(c, pb.Left, pb.Right)
}

// xSourcedFrom reports whether column b is covered by a non-chimeric step
// that fetches it as a ladder X attribute sourced directly from column src.
func xSourcedFrom(c *chase.Result, b, src query.Binding) bool {
	si := c.CoveredBy(b.Atom, b.Index)
	if si < 0 {
		return false
	}
	st := &c.Steps[si]
	xi := slices.Index(st.Ladder.XIdx(), b.Index)
	if st.Chimeric || st.AtomIdx != b.Atom || xi < 0 {
		return false
	}
	x := st.X[xi]
	return !x.IsConst && x.AtomIdx == src.Atom && x.Attr == src.Index
}
