// Package beas is the public API of this repository: a resource-bounded
// approximate query engine reproducing "Data Driven Approximation with
// Bounded Resources" (Cao & Fan, VLDB 2017).
//
// Given a dataset D, an access schema A (access templates + constraints,
// built automatically as At or extended with user-declared ladders) and a
// resource ratio α ∈ (0, 1], BEAS answers relational queries — SPC, RA and
// aggregates — while accessing at most α·|D| tuples, returning exact
// answers when the query is boundedly evaluable within that budget and
// otherwise approximate answers with a deterministic RC-accuracy lower
// bound η.
//
// Quick start:
//
//	db := beas.NewDatabase()
//	// ... add relations ...
//	sys, err := beas.OpenAt(db)                     // build At indices
//	q, err := beas.ParseSQL("select h.address, h.price from poi as h ...")
//	ans, plan, err := sys.Query(ctx, q, beas.WithAlpha(1e-3))
//	fmt.Println(ans.Rel.Tuples, ans.Eta)
//
// The query entry points are context-first and option-driven: every call
// carries a context.Context (cancellation and deadlines propagate into the
// executor — a cancelled query aborts mid-flight instead of burning the
// rest of its budget) and functional options tune the resource bound
// (WithAlpha, WithBudget) and the execution strategy (WithRemoteFetcher,
// WithCacheBypass, WithTag) per call. Answers can be consumed whole
// (Query) or as a pull iterator (Answer.Rows).
//
// The heavy lifting lives in the internal packages: internal/core holds the
// approximation schemes (the paper's contribution), internal/access the
// template indices, internal/chase the plan generator, internal/plan the
// executor, internal/accuracy the RC/MAC/F measures, and internal/workload
// plus internal/bench regenerate the paper's evaluation.
package beas

import (
	"context"

	"repro/internal/access"
	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparser"
)

// Re-exported relational model types.
type (
	// Database is an instance D of a database schema.
	Database = relation.Database
	// Relation is one relation instance.
	Relation = relation.Relation
	// Schema is a relation schema R(A1..Ah).
	Schema = relation.Schema
	// Attribute is one column description (name, kind, distance).
	Attribute = relation.Attribute
	// Value is a dynamically typed attribute value.
	Value = relation.Value
	// Tuple is one row.
	Tuple = relation.Tuple
	// Distance is a per-attribute distance function.
	Distance = relation.Distance
)

// Re-exported query types.
type (
	// Query is any query expression (SPC, RA or aggregate).
	Query = query.Expr
	// SPC is a flattened conjunctive query.
	SPC = query.SPC
	// Union, Diff and GroupBy are the RA / RAaggr combinators.
	Union   = query.Union
	Diff    = query.Diff
	GroupBy = query.GroupBy
	// Col references an attribute of an aliased atom.
	Col = query.Col
	// Pred is one selection predicate.
	Pred = query.Pred
	// Atom is a relation occurrence.
	Atom = query.Atom
)

// Re-exported access-schema and result types.
type (
	// AccessSchema is a set of access-template ladders.
	AccessSchema = access.Schema
	// Ladder is a family of access templates over one shared index.
	Ladder = access.Ladder
	// Template is one access template R(X -> Y, N, d̄Y).
	Template = access.Template
	// Plan is an α-bounded query plan with its accuracy bound η.
	Plan = core.Plan
	// Answer is an executed plan's result. Answer.Rows() returns a pull
	// iterator over its tuples.
	Answer = core.Answer
	// Rows is a pull iterator over an Answer's tuples.
	Rows = core.Rows
	// TagStats aggregates the queries attributed to one WithTag label.
	TagStats = core.TagStats
	// BoundTrace is the full derivation record of an answer's η: every
	// bound rule applied, with its inputs and contribution. Request it per
	// call with WithExplainEta; render it with its String method.
	BoundTrace = core.BoundTrace
	// BoundStep is one recorded rule application within a BoundTrace.
	BoundStep = core.BoundStep
	// Report is an RC-measure evaluation of an answer set.
	Report = accuracy.Report
)

// Value constructors.
var (
	Int    = relation.Int
	Float  = relation.Float
	String = relation.String
	Null   = relation.Null
)

// Kind identifies the dynamic type of a Value.
type Kind = relation.Kind

// Value kinds, for schema declarations.
const (
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
)

// Distance constructors (§2.1).
var (
	Trivial  = relation.Trivial
	Discrete = relation.Discrete
	Numeric  = relation.Numeric
)

// Schema and database constructors.
var (
	Attr        = relation.Attr
	NewSchema   = relation.NewSchema
	MustSchema  = relation.MustSchema
	NewRelation = relation.NewRelation
	NewDatabase = relation.NewDatabase
)

// Query construction helpers.
var (
	C   = query.C
	EqC = query.EqC
	LeC = query.LeC
	GeC = query.GeC
	EqJ = query.EqJ
	LeJ = query.LeJ
)

// Aggregate kinds.
const (
	AggMin   = query.AggMin
	AggMax   = query.AggMax
	AggSum   = query.AggSum
	AggCount = query.AggCount
	AggAvg   = query.AggAvg
)

// ParseSQL parses the supported SQL subset into a Query.
func ParseSQL(sql string) (Query, error) { return sqlparser.Parse(sql) }

// RenderSQL pretty-prints a query.
func RenderSQL(q Query) string { return query.Render(q) }

// BuildAt constructs the generic access schema At of Theorem 1(1) for the
// database: every instance conforms to its own At, and every query becomes
// approximable under it.
func BuildAt(db *Database) (*AccessSchema, error) { return access.BuildAt(db) }

// System is a BEAS instance bound to one database and one access schema
// (the architecture of Fig. 2: offline index construction has happened;
// Query performs the online plan generation and execution).
//
// A System is safe for concurrent use: the database and indices are
// immutable after Open, plans are immutable once generated, and every
// query execution keeps its own state. One System can therefore serve any
// number of goroutines (see cmd/beasd for an HTTP server doing exactly
// that). An affordable multi-leaf plan runs each leaf on its own goroutine
// with the α·|D| access budget partitioned across the leaves up front
// (every other plan runs its leaves in order), and repeated (query, α)
// pairs are served from a size-bounded LRU plan cache.
// Do not mutate the Database after Open.
type System struct {
	scheme *core.Scheme
	// store is the persistence binding of OpenPersisted (nil when the
	// system is purely in-memory); see persistence.go.
	store *persist.Store
}

// PlanCacheStats is a snapshot of plan-cache effectiveness counters.
type PlanCacheStats = plancache.Stats

// InternalError is the typed error a contained evaluator panic surfaces as:
// crash containment (in the evaluator and every leaf, concurrent or not)
// recovers the panic and returns it as one of these instead of killing the
// process. Detect it with errors.As; the Stack field carries the panicking
// goroutine's stack for the log.
type InternalError = guard.PanicError

// IsInternalError reports whether err (anywhere in its chain) is a
// contained panic, and returns it.
func IsInternalError(err error) (*InternalError, bool) { return guard.AsPanic(err) }

// Open builds a System from a database and a prebuilt access schema.
// The schema should subsume At; see BuildAt and (*AccessSchema).Extend.
func Open(db *Database, as *AccessSchema) *System {
	return &System{scheme: core.New(db, as)}
}

// OpenAt builds a System with the generic access schema At.
func OpenAt(db *Database) (*System, error) {
	as, err := access.BuildAt(db)
	if err != nil {
		return nil, err
	}
	return Open(db, as), nil
}

// OpenDiscovered builds a System with At plus access constraints and
// templates mined from the data (the discovery pass §4.1 suggests for the
// offline component C1): key- and foreign-key-like groupings become
// constraint ladders, low-cardinality categorical groupings become
// template ladders. Discovered schemas usually yield far better accuracy
// bounds than At alone. Discovery scans the data, so it takes the call's
// context: cancelling ctx abandons the mining pass.
func OpenDiscovered(ctx context.Context, db *Database) (*System, error) {
	as, err := access.DiscoverSchemaContext(ctx, db, access.DiscoverOptions{})
	if err != nil {
		return nil, err
	}
	return Open(db, as), nil
}

// Scheme exposes the underlying resource-bounded approximation scheme for
// advanced use (experiments, custom execution).
func (s *System) Scheme() *core.Scheme { return s.scheme }

// PlanCacheStats reports how the plan cache is performing: Query and
// QuerySQL serve repeated (query, α) pairs from an LRU of generated plans,
// skipping the chase + chAT work.
func (s *System) PlanCacheStats() PlanCacheStats { return s.scheme.CacheStats() }

// QueryStats returns the per-tag serving counters recorded for queries
// that carried a WithTag option.
func (s *System) QueryStats() map[string]TagStats { return s.scheme.TagStatsSnapshot() }

// DefaultAlpha is the resource ratio a query runs with when neither
// WithAlpha nor WithBudget is given.
const DefaultAlpha = 0.01

// Option tunes one query call (see Query, QuerySQL, Plan and Execute).
// Options compose left to right; later options win.
type Option func(*core.ExecOptions)

// WithAlpha bounds the call by the resource ratio α ∈ (0, 1]: execution
// accesses at most α·|D| tuples. Overridden by WithBudget.
func WithAlpha(alpha float64) Option {
	return func(o *core.ExecOptions) { o.Alpha = alpha }
}

// WithBudget bounds the call by an absolute tuple budget instead of a
// ratio: execution accesses at most n tuples (the reported Alpha becomes
// n/|D|, capped at 1). Takes precedence over WithAlpha; WithBudget(0)
// clears a previously set budget, restoring the WithAlpha bound.
func WithBudget(n int) Option {
	return func(o *core.ExecOptions) { o.Budget = n }
}

// WithMinAlpha sets the floor below which overload degradation may not
// shrink this call's α: the effective ratio is max(α, minAlpha). It is the
// caller's accuracy SLO — a browned-out server (see cmd/beasd) trades
// accuracy for admission by lowering α, but never past this line, and the
// degraded answer still carries its deterministic η bound. Ignored when
// WithBudget is in effect.
func WithMinAlpha(minAlpha float64) Option {
	return func(o *core.ExecOptions) { o.MinAlpha = minAlpha }
}

// WithCacheBypass makes the call skip the plan cache entirely — no lookup,
// no insertion — so a one-off query cannot evict hot cached plans.
func WithCacheBypass() Option {
	return func(o *core.ExecOptions) { o.BypassCache = true }
}

// RemoteFetcher resolves batched ladder fetches through a routing layer
// that may serve them from other processes — the executor seam the cluster
// layer (internal/cluster) implements. See WithRemoteFetcher.
type RemoteFetcher = plan.RemoteFetcher

// WithRemoteFetcher routes every fetch-step batch of the call through f
// instead of the in-process ladder scatter-gather — how a cluster node
// answers queries whose ladder groups live on its peers. Budget accounting
// stays sequential in first-seen enumeration order over the returned views,
// so answers, η and access stats are byte-identical to local execution
// regardless of placement; a fetch the router cannot complete surfaces as
// its typed error (for the cluster layer, a *cluster.PeerError), never as a
// silently partial answer. WithRemoteFetcher(nil) restores local fetching.
func WithRemoteFetcher(f RemoteFetcher) Option {
	return func(o *core.ExecOptions) { o.Fetcher = f }
}

// WithTag attributes the call in the system's per-tag stats (QueryStats):
// tagged callers see their query counts, tuple access and cumulative time
// broken out, e.g. per tenant or per endpoint.
func WithTag(tag string) Option {
	return func(o *core.ExecOptions) { o.Tag = tag }
}

// Trace is a query-scoped span tree (see WithTrace): a root "query" span
// with timed children for planning, each leaf and its fetch steps (per
// cluster peer when routed), combine and η′ refinement, annotated with
// tuples accessed vs. budget, the level served and η. Render it with
// Trace.String or walk it from Trace.Root.
type Trace = obs.Trace

// TraceSpan is one node of a Trace.
type TraceSpan = obs.Span

// MetricsRegistry is a dependency-free metrics registry rendering the
// Prometheus text exposition format; see System.RegisterMetrics and
// cmd/beasd's /metrics endpoint.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrace starts an empty query trace. Pass it to a single query call
// with WithTrace; when the call returns, the trace is complete (its root
// span ended) and also available as Answer.ExecTrace.
func NewTrace() *Trace { return obs.NewTrace("query") }

// WithTrace collects a query-scoped span tree into t: plan-cache lookup,
// plan generation, each leaf and its fetch steps (cluster RPC per peer
// with retry and circuit state when routed), combine and η′
// refinement, each span annotated with wall time, tuples accessed vs.
// budget and the resolution level served. A trace is for one call; the
// disabled path (no WithTrace) costs one context lookup plus a nil check
// per instrumentation point.
func WithTrace(t *Trace) Option {
	return func(o *core.ExecOptions) { o.Trace = t }
}

// RegisterMetrics binds the system's instruments — plan-cache
// effectiveness and occupancy, per-tag attribution (QueryStats), per-ladder
// footprints (LadderStats) and, for persisted systems, durability state —
// into reg. The counters registered are the very atomics the system
// increments, so a scrape and PlanCacheStats cannot disagree; the per-tag
// and per-ladder series are computed at scrape time.
func (s *System) RegisterMetrics(reg *MetricsRegistry) {
	h, m, e := s.scheme.PlanCacheCounters()
	reg.RegisterCounter("beas_plancache_hits_total",
		"Plan cache lookups served from the LRU.", h)
	reg.RegisterCounter("beas_plancache_misses_total",
		"Plan cache lookups that generated a new plan.", m)
	reg.RegisterCounter("beas_plancache_evictions_total",
		"Plans evicted to respect the cache capacity.", e)
	reg.GaugeFunc("beas_plancache_entries",
		"Plans currently cached.",
		func() float64 { return float64(s.scheme.CacheStats().Len) })
	reg.GaugeFunc("beas_plancache_capacity",
		"Plan cache capacity bound.",
		func() float64 { return float64(s.scheme.CacheStats().Cap) })
	tag := func(stat func(TagStats) float64) func() map[string]float64 {
		return func() map[string]float64 {
			out := map[string]float64{}
			for t, st := range s.QueryStats() {
				out[t] = stat(st)
			}
			return out
		}
	}
	reg.GaugeFuncMap("beas_tag_queries", "Successful queries per WithTag label.", "tag",
		tag(func(st TagStats) float64 { return float64(st.Queries) }))
	reg.GaugeFuncMap("beas_tag_errors", "Failed queries per WithTag label.", "tag",
		tag(func(st TagStats) float64 { return float64(st.Errors) }))
	reg.GaugeFuncMap("beas_tag_accessed_tuples", "Tuples accessed by successful queries per WithTag label.", "tag",
		tag(func(st TagStats) float64 { return float64(st.Accessed) }))
	reg.GaugeFuncMap("beas_tag_seconds", "Cumulative wall time of successful queries per WithTag label.", "tag",
		tag(func(st TagStats) float64 { return st.Total.Seconds() }))
	ladder := func(stat func(LadderStat) int) func() map[string]float64 {
		return func() map[string]float64 {
			out := map[string]float64{}
			for _, l := range s.LadderStats() {
				out[l.label(out)] = float64(stat(l))
			}
			return out
		}
	}
	reg.GaugeFuncMap("beas_ladder_groups", "Distinct X-values indexed per ladder.", "ladder",
		ladder(func(l LadderStat) int { return l.Groups }))
	reg.GaugeFuncMap("beas_ladder_levels", "Template levels per ladder.", "ladder",
		ladder(func(l LadderStat) int { return l.Levels }))
	reg.GaugeFuncMap("beas_ladder_resident_tuples", "Representative samples materialised per ladder.", "ladder",
		ladder(func(l LadderStat) int { return l.ResidentTuples }))
	reg.GaugeFuncMap("beas_ladder_max_group_distinct", "Largest group's distinct-Y count per ladder.", "ladder",
		ladder(func(l LadderStat) int { return l.MaxGroupDistinct }))
	if s.store != nil {
		s.store.RegisterMetrics(reg)
	}
}

// WithExplainEta attaches the bound-derivation trace to the answer
// (Answer.Trace): every rule that contributed to the reported η — output
// resolutions, predicate relaxations, join coverage analysis, group-by
// inheritance and execution-stage overrides — with its inputs. The `beas
// -explain-eta` flag renders it; programs can inspect Trace.Steps.
func WithExplainEta() Option {
	return func(o *core.ExecOptions) { o.ExplainEta = true }
}

// execOptions folds the call's options over the defaults.
func execOptions(opts []Option) core.ExecOptions {
	o := core.ExecOptions{Alpha: DefaultAlpha}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Plan generates a resource-bounded plan for the query without touching
// the data (component C3): at most α·|D| tuples (or the WithBudget bound)
// will be accessed on execution, and Plan.Eta lower-bounds the RC accuracy
// of the answers. Planning is pure metadata work; ctx is checked between
// its passes.
func (s *System) Plan(ctx context.Context, q Query, opts ...Option) (*Plan, error) {
	return s.scheme.PlanContext(ctx, q, execOptions(opts))
}

// Execute runs a generated plan (component C4) under the call's context
// and execution options (the resource bound travels with the plan;
// WithAlpha/WithBudget are ignored here). Cancelling ctx aborts the
// execution mid-flight — between leaves, before each batch fetch and per
// emitted chunk — returning ctx.Err() promptly.
func (s *System) Execute(ctx context.Context, p *Plan, opts ...Option) (*Answer, error) {
	return s.scheme.ExecuteContext(ctx, p, execOptions(opts))
}

// Query plans and executes in one call, returning the answers with their
// deterministic accuracy bound and the plan itself. Repeated queries are
// served from the plan cache (unless WithCacheBypass); cancelling ctx
// aborts execution mid-flight with ctx.Err().
func (s *System) Query(ctx context.Context, q Query, opts ...Option) (*Answer, *Plan, error) {
	return s.scheme.AnswerContext(ctx, q, execOptions(opts))
}

// QuerySQL parses and answers a SQL string under the call's context and
// options.
func (s *System) QuerySQL(ctx context.Context, sql string, opts ...Option) (*Answer, *Plan, error) {
	q, err := ParseSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	return s.Query(ctx, q, opts...)
}

// MinAlphaExact returns the smallest resource ratio at which the query is
// answered exactly (bounded evaluability within budget; Exp-3).
func (s *System) MinAlphaExact(q Query) (float64, error) {
	return s.scheme.MinAlphaExact(q)
}

// Accuracy measures an answer set against the exact answers under the
// RC-measure (§3). It evaluates the query exactly, so it is for testing and
// experiments, not for the resource-bounded path.
func Accuracy(db *Database, q Query, answers *Relation) (Report, error) {
	ev, err := accuracy.NewEvaluator(db, q)
	if err != nil {
		return Report{}, err
	}
	return ev.RC(answers), nil
}

// Exact computes the exact answers Q(D) with set semantics for RA queries;
// the reference the paper compares against (and the "full evaluation" cost
// baseline of Exp-5).
func Exact(db *Database, q Query) (*Relation, error) {
	if _, ok := q.(*GroupBy); ok {
		return query.Evaluate(db, q)
	}
	return query.EvaluateSet(db, q)
}
