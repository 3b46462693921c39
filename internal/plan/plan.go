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
// A budget-truncated run still completes every atom's schema: the steps
// after the truncating one contribute empty blocks without fetching, so
// one evaluator serves every run.
package plan

import (
	"context"
	"sync"

	"repro/internal/chase"
	"repro/internal/relation"
)

// Bounded is an α-bounded plan: a chased fetch-plan skeleton plus a level
// assignment for its template steps (chAT's output) and the budget.
type Bounded struct {
	Chase  *chase.Result
	Ks     []int
	Budget int
	// Res is the resolution table of Chase under Ks
	// (chase.Result.Resolutions): column (atom, attr) resolves to
	// Res[Chase.Col(atom, attr)]. NewBounded fills it and SetLevel keeps it
	// current; like Ks it is read-only once the plan is generated.
	Res []float64

	// The execution layout is precompiled lazily on first execution and
	// shared by all (concurrent) executions; it depends only on Chase,
	// never on Ks or Budget.
	layoutOnce sync.Once
	layout     *planLayout
	layoutErr  error
}

// NewBounded wraps a chase result with its initial level assignment.
func NewBounded(c *chase.Result, budget int) *Bounded {
	p := &Bounded{Chase: c, Ks: c.Levels(), Budget: budget, Res: make([]float64, c.NumCols())}
	c.Resolutions(p.Ks, p.Res)
	return p
}

// SetLevel sets step si's level to k and refreshes the resolution table.
func (p *Bounded) SetLevel(si, k int) {
	p.Ks[si] = k
	p.Chase.Resolutions(p.Ks, p.Res)
}

// Resolution returns the fetch resolution of column (atom, attr) under the
// plan's level assignment, attr indexing the atom's base schema.
func (p *Bounded) Resolution(atom, attr int) float64 {
	return p.Res[p.Chase.Col(atom, attr)]
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
	// Fetcher, when non-nil, resolves every fetch step's batch through it
	// instead of the ladder's own lookups — the cluster
	// routing seam. Budget accounting stays sequential in first-seen
	// enumeration order over the returned views, so answers do not depend
	// on where a fetch was served. A fetcher error aborts the step (typed,
	// e.g. *cluster.PeerError) — never a silently partial answer.
	Fetcher RemoteFetcher
}

// DefaultExecOpts returns the executor defaults for one run: the given
// budget, in-process fetching. workers is ignored: every batch resolves on
// the calling goroutine.
func DefaultExecOpts(budget, workers int) ExecOpts {
	return ExecOpts{Budget: budget}
}

// cancelStride bounds how many enumeration visits the fetch loop processes
// between two context checks: cancellation is noticed within one stride of
// work at every level of the executor.
const cancelStride = 64

// ExecuteOpts runs the full plan — fetch then relaxed evaluation — under
// per-call options, leaving the plan itself untouched. Plans are immutable
// once generated, so the same *Bounded may be executed concurrently from
// many goroutines (each call takes its own scratch); the budget is
// per-call because callers partition one global α|D| budget across the
// leaves of a larger plan.
//
// Execution is columnar (colexec.go): each fetch step resolves its
// distinct X-values with one batch — looked up in the ladder, or routed
// through o.Fetcher — and accounts them against the budget sequentially in
// first-seen enumeration order, so answers, Stats and truncation points do
// not depend on where a fetch was served (asserted by
// TestClusterInvariance and the golden digest suite). Every run, truncated
// or not, is evaluated by evaluateColumnar over atoms that carry their
// final schemas.
//
// The run's working memory — fetched blocks, enumeration tables, selection
// vectors, join pairs and environments — is a pooled scratch (scratch.go),
// taken when the call starts and returned when it ends, so a warm run
// allocates little beyond its answer. A call that panics drops its scratch
// instead of returning it, and so does one whose scratch grew beyond
// maxPooledBytes.
//
// Cancellation is cooperative: ctx is checked between fetch steps, every
// cancelStride enumeration visits, before each batch fetch and at every
// atom-join boundary of evaluation. A cancelled call returns ctx.Err()
// promptly instead of burning the rest of its budget.
//
// db is ignored: the plan's chase result carries the resolved leaf, which
// binds every schema a run reads.
func ExecuteOpts(ctx context.Context, p *Bounded, db *relation.Database, o ExecOpts) (*Result, error) {
	sc := scratchPool.Get()
	res, err := executeOn(ctx, p, o, sc)
	putScratch(sc)
	return res, err
}

// executeOn is ExecuteOpts with sc as the run's working memory.
func executeOn(ctx context.Context, p *Bounded, o ExecOpts, sc *runScratch) (*Result, error) {
	lay, err := p.layoutFor()
	if err != nil {
		return nil, err
	}
	if o.Fetcher == nil {
		o.Fetcher = localFetcher{}
	}
	atoms, stats, err := executeFetchBlocks(ctx, p, lay, o, sc)
	if err != nil {
		return nil, err
	}
	res, err := evaluateColumnar(ctx, p, lay, atoms, sc)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
