// Package serve implements the HTTP serving layer of the BEAS daemon: the
// online half of the paper's Fig. 2 architecture as reusable handlers, so
// cmd/beasd (the production daemon), the benchmark's serve_mixed workload
// and the overload campaign in internal/bench drive the exact same code.
//
// Three request paths share one concurrency-safe System:
//
//   - POST /query answers a single query synchronously on the caller's
//     connection goroutine — the lowest-latency path. The request's context
//     is the execution context: a disconnected client aborts the query
//     mid-flight.
//   - POST /stream answers a single query through the same execution as
//     /query and writes it as NDJSON: one columns line, one line per answer
//     row (uncapped, flushed every streamFlushRows rows so the HTTP response
//     is never buffered whole) and a final summary line carrying the same
//     metadata /query returns. The answer set is assembled before the first
//     line leaves, because η is certified over the complete set; an
//     execution failure therefore answers the same HTTP status as /query.
//   - POST /batch pipelines many queries through a bounded request queue
//     drained by a fixed worker pool. Admission is budget-weighted: each
//     job weighs its estimated access budget ⌈α·|D|⌉, and jobs beyond the
//     configured in-flight budget cap are rejected immediately — one giant
//     batch cannot monopolise the worker pool ahead of small interactive
//     queries. Every request carries a deadline that travels into the
//     executor as a context deadline: jobs whose deadline passes while
//     queued are failed without executing, and jobs whose deadline expires
//     mid-flight are abandoned at the executor's next cancellation point
//     instead of burning a worker to completion.
//
// POST /snapshot is the operator's durability knob: it checkpoints a
// persisted system into its own directory (truncating the WAL) or writes a
// standalone snapshot copy to a requested directory. GET /healthz reports
// liveness plus dataset shape. GET /metrics renders the metrics registry in
// Prometheus text format and GET /stats renders the same registry walk as
// JSON, so the two cannot disagree.
//
// When Config.Cluster is set, the node's /internal/fetch RPC (see
// internal/cluster) rides the same mux, its series join the registry, open
// peer circuits fail /readyz, and a query that dies on an unreachable peer
// answers 502 with the typed *cluster.PeerError text.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	beas "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// Config assembles a Server. System is required; zero values elsewhere get
// the documented defaults.
type Config struct {
	// System is the shared query engine (immutable database + indices).
	System *beas.System
	// DefaultAlpha is used when a request omits alpha (default 0.01).
	DefaultAlpha float64
	// MaxRows caps answer rows returned per /query and per /batch entry
	// (default 1000). /stream is uncapped: it exists to deliver large
	// answers incrementally.
	MaxRows int
	// ExecOptions are prepended to every query's options (before the
	// request's own alpha and tag), letting the embedder pin an execution
	// strategy per call — cmd/beasd routes fetches through its cluster node
	// this way (beas.WithRemoteFetcher), without any global toggles.
	ExecOptions []beas.Option
	// Dataset, DBSize and Relations describe the loaded data for /healthz.
	// DBSize also sizes the default batch BudgetCap.
	Dataset   string
	DBSize    int
	Relations int

	// QueueDepth bounds the /batch request queue; enqueue attempts beyond
	// it are rejected with a per-request error (default 256).
	QueueDepth int
	// Workers is the batch worker-pool size (default GOMAXPROCS).
	Workers int
	// MaxBatch caps queries per /batch call (default 256).
	MaxBatch int
	// DefaultDeadline applies to batch requests that set no deadlineMs
	// (default 30s).
	DefaultDeadline time.Duration
	// BudgetCap bounds the summed estimated budgets ⌈α·|D|⌉ of admitted
	// but unfinished /batch jobs (weighted admission). 0 derives 4×DBSize
	// when DBSize is known and otherwise disables the weight gate. One
	// job is always admitted when nothing else is in flight, so a single
	// over-cap query stays servable.
	BudgetCap int

	// Brownout tunes the overload controller (see brownout.go). The zero
	// value is automatic control with defaults; Mode "off" restores the
	// reject-only behaviour of earlier versions.
	Brownout BrownoutConfig

	// Cluster, when non-nil, makes this server a member of a multi-node
	// deployment: its /internal/fetch RPC is mounted on the same mux, a
	// *cluster.PeerError maps to 502 Bad Gateway, open peer circuits fail
	// /readyz and its series join the registry. The embedder still wires
	// the node's Fetcher into ExecOptions (beas.WithRemoteFetcher) — serve
	// only exposes the node, it does not reroute execution by itself.
	Cluster *cluster.Node

	// Registry receives every serving instrument and is mounted at GET
	// /metrics (Prometheus text) and GET /stats (JSON). The serving
	// counters live IN the registry (handlers increment registry-owned
	// atomics). Nil builds a private registry.
	Registry *obs.Registry
	// Audit, when non-nil, receives one structured AuditRecord per query
	// on every serving surface (/query, /stream, each /batch entry),
	// successes and failures alike. Recording never blocks the serving
	// path: a saturated ring drops and counts (see obs.AuditLog).
	Audit *obs.AuditLog
	// SlowQuery, when positive, traces every query and logs the full span
	// tree of any that took at least this long. Tracing cannot be enabled
	// retroactively, so the threshold prices a small always-on overhead
	// (docs/PERF_HISTORY.md) for forensic detail on the outliers.
	SlowQuery time.Duration
	// Logger receives the server's structured events (contained panics,
	// slow queries, response-encode failures). Nil defaults to text lines
	// on stderr, matching the log.Printf behaviour it replaces.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultAlpha <= 0 {
		c.DefaultAlpha = 0.01
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1000
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.BudgetCap <= 0 {
		if c.DBSize > 0 {
			c.BudgetCap = 4 * c.DBSize
		} else {
			c.BudgetCap = math.MaxInt
		}
	}
	return c
}

// QueryRequest is the body of one /query or /stream call and one element
// of a /batch call's queries array.
type QueryRequest struct {
	SQL   string  `json:"sql"`
	Alpha float64 `json:"alpha"`
	// MinAlpha is this request's accuracy SLO: the floor below which
	// brownout degradation may not shrink its effective α (optional;
	// defaults to the server-wide BrownoutConfig.MinAlpha).
	MinAlpha float64 `json:"minAlpha,omitempty"`
	// Tag attributes the query in the per-tag series (optional).
	Tag string `json:"tag,omitempty"`
}

// AnswerMeta is what a served answer reports besides its rows: the row
// count, the accuracy bound, the resources used and the timings. execute
// fills it once; /query and /batch embed it in QueryResponse and /stream
// sends it as its summary line. Alpha is the ACHIEVED resource ratio: under
// brownout it can be lower than the request's, with Degraded set and
// RequestedAlpha carrying the original ask — Eta still certifies the
// degraded answer.
type AnswerMeta struct {
	Rows      int     `json:"rows"`
	Truncated bool    `json:"rowsTruncated,omitempty"` // /query response capped at MaxRows
	Eta       float64 `json:"eta"`
	Exact     bool    `json:"exact"`
	Alpha     float64 `json:"alpha"`
	Accessed  int     `json:"accessed"`
	Budget    int     `json:"budget"`
	CacheHit  bool    `json:"cacheHit"`
	PlanGenMS float64 `json:"planGenMs"`
	ServedMS  float64 `json:"servedMs"`
	// Degraded marks an answer served below the requested α by brownout.
	Degraded bool `json:"degraded,omitempty"`
	// RequestedAlpha is the original request's α when Degraded.
	RequestedAlpha float64 `json:"requestedAlpha,omitempty"`
	// BrownoutLevel is the degradation level the answer was served at.
	BrownoutLevel int `json:"brownoutLevel,omitempty"`
}

// QueryResponse is the answer payload of one /query call or /batch entry:
// the columns, at most MaxRows rows and the answer's metadata.
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Tuples  [][]string `json:"tuples"`
	AnswerMeta
	// Trace is the query's span tree — planning, leaves, fetch steps,
	// cluster peer fan-out — present only when the call asked for it with
	// ?debug=trace.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// BatchRequest is the body of a /batch call: queries to pipeline through
// the request queue, with an optional per-request deadline in milliseconds
// (counted from arrival; Config.DefaultDeadline when omitted).
type BatchRequest struct {
	Queries    []QueryRequest `json:"queries"`
	DeadlineMS int            `json:"deadlineMs"`
}

// BatchEntry is the outcome of one query of a batch: either a result or an
// error, with TimedOut marking deadline expiry (queued or mid-flight),
// Cancelled marking context cancellation (client gone, server closing) and
// Rejected marking admission refusal (queue backpressure or the in-flight
// budget cap).
type BatchEntry struct {
	QueryResponse
	Error     string `json:"error,omitempty"`
	TimedOut  bool   `json:"timedOut,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Rejected  bool   `json:"rejected,omitempty"`
}

// BatchResponse is the body of a /batch reply. Entries are in request
// order. Rejected counts entries refused at admission.
type BatchResponse struct {
	Results  []BatchEntry `json:"results"`
	Rejected int          `json:"rejected,omitempty"`
	ServedMS float64      `json:"servedMs"`
}

// job is one queued batch query awaiting a worker.
type job struct {
	req QueryRequest
	// ctx is the parent (request) context; the worker derives the
	// execution context from it with the job's deadline.
	ctx      context.Context
	deadline time.Time
	// weight is the admission weight ⌈α·|D|⌉ released on completion.
	weight int64
	entry  *BatchEntry
	wg     *sync.WaitGroup
}

// Server hosts the HTTP handlers and the batch worker pool over one shared
// System. Create with New, release with Close.
//
// Every serving counter is an instrument owned by the metrics registry:
// handlers increment the atomics /metrics and /stats render.
type Server struct {
	cfg     Config
	started time.Time
	brown   *brownoutController
	reg     *obs.Registry
	log     *obs.Logger

	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup

	queries   *obs.Counter   // successful query executions (all paths)
	failures  *obs.Counter   // rejected or failed query executions
	latency   *obs.Histogram // serving time of successful executions (seconds)
	streams   *obs.Counter   // /stream calls completed successfully
	batches   *obs.Counter   // /batch calls accepted
	expired   *obs.Counter   // batch jobs failed on deadline (queued or mid-flight)
	cancelled *obs.Counter   // batch jobs aborted by context cancellation
	rejected  *obs.Counter   // batch jobs refused at admission
	enqueued  *obs.Counter   // batch jobs admitted to the queue
	completed *obs.Counter   // batch jobs finished by workers
	inflight  *obs.Gauge     // summed admission weight of unfinished batch jobs

	internalErrors *obs.Counter // contained panics (middleware + evaluator)
	degradedServed *obs.Counter // answers served below the requested α
	shed           *obs.Counter // requests refused by brownout shedding
	draining       atomic.Bool  // shutdown started; readiness fails
}

// New builds a Server and starts its batch worker pool. It fails only on
// an invalid configuration (an unknown brownout mode).
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg.withDefaults(),
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	brown, err := newBrownoutController(s.cfg.Brownout)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.brown = brown
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log, _ = obs.NewLogger(os.Stderr, "text")
	}
	s.reg = s.cfg.Registry
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.registerMetrics()
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				case <-s.stop:
					// Graceful drain: finish the queued jobs instead of
					// failing them — admission already stopped (handlers are
					// not invoked after Close), so the queue only shrinks.
					for {
						select {
						case j := <-s.queue:
							s.runJob(j)
						default:
							return
						}
					}
				}
			}
		}()
	}
	return s, nil
}

// registerMetrics creates the serving instruments inside the registry and
// binds the engine's own (plan cache, persistence, cluster) so one GET
// /metrics scrape covers the full stack. Derived state — brownout level,
// queue pressure, uptime — is exported as computed gauges evaluated at
// scrape time.
func (s *Server) registerMetrics() {
	r := s.reg
	s.queries = r.Counter("beas_queries_total", "Queries answered successfully (all serving surfaces).")
	s.failures = r.Counter("beas_query_failures_total", "Queries rejected or failed (validation, execution, shedding).")
	s.latency = r.Histogram("beas_query_duration_seconds", "End-to-end serving latency of successful queries.", obs.DurationBuckets)
	s.streams = r.Counter("beas_streams_total", "Completed /stream responses.")
	s.batches = r.Counter("beas_batch_batches_total", "Accepted /batch calls.")
	s.expired = r.Counter("beas_batch_expired_total", "Batch jobs failed on deadline, queued or mid-flight.")
	s.cancelled = r.Counter("beas_batch_cancelled_total", "Batch jobs aborted by context cancellation.")
	s.rejected = r.Counter("beas_batch_rejected_total", "Batch jobs refused at admission (queue or budget backpressure).")
	s.enqueued = r.Counter("beas_batch_enqueued_total", "Batch jobs admitted to the request queue.")
	s.completed = r.Counter("beas_batch_completed_total", "Batch jobs finished by workers.")
	s.inflight = r.Gauge("beas_batch_inflight_budget", "Summed admission weight ⌈α·|D|⌉ of unfinished batch jobs.")
	s.internalErrors = r.Counter("beas_internal_errors_total", "Contained panics (middleware and evaluator).")
	s.degradedServed = r.Counter("beas_degraded_total", "Answers served below the requested α by brownout.")
	s.shed = r.Counter("beas_shed_total", "Requests refused by brownout shedding.")
	r.GaugeFunc("beas_brownout_level", "Current brownout degradation level.", func() float64 {
		level, _ := s.brown.snapshot()
		return float64(level)
	})
	r.GaugeFunc("beas_brownout_level_shifts", "Brownout level transitions since start.", func() float64 {
		_, shifts := s.brown.snapshot()
		return float64(shifts)
	})
	r.GaugeFunc("beas_brownout_pressure", "Instantaneous overload pressure feeding the controller.", func() float64 { return s.pressure() })
	r.GaugeFunc("beas_batch_queue_depth", "Batch jobs waiting in the request queue.", func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("beas_batch_queue_cap", "Batch request queue capacity.", func() float64 { return float64(cap(s.queue)) })
	r.GaugeFunc("beas_draining", "Whether shutdown drain started and readiness fails (0/1).", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	r.GaugeFunc("beas_brownout_smoothed_pressure", "Moving average of the pressure that the step-down decision reads.", s.brown.smoothed)
	r.GaugeFunc("beas_brownout_min_alpha", "Server-wide floor below which brownout may not shrink α.", func() float64 { return s.brown.cfg.MinAlpha })
	r.GaugeFuncVec("beas_brownout_mode", "Brownout controller mode (1 for the configured mode).", "mode", s.brown.cfg.Mode, func() float64 { return 1 })
	r.Gauge("beas_batch_workers", "Batch worker-pool size.").Set(int64(s.cfg.Workers))
	r.Gauge("beas_batch_budget_cap", "Cap on the summed admission weight of unfinished batch jobs.").Set(int64(s.cfg.BudgetCap))
	r.GaugeFunc("beas_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.started).Seconds() })
	if s.cfg.Audit != nil {
		r.GaugeFunc("beas_audit_written", "Audit records delivered to the sink.", func() float64 { return float64(s.cfg.Audit.Written()) })
		r.GaugeFunc("beas_audit_dropped", "Audit records dropped by ring backpressure.", func() float64 { return float64(s.cfg.Audit.Dropped()) })
	}
	if s.cfg.System != nil {
		s.cfg.System.RegisterMetrics(s.reg)
	}
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.RegisterMetrics(s.reg)
	}
}

// Close stops the batch workers gracefully: in-flight jobs finish and the
// queued backlog is drained and executed (each job still subject to its own
// deadline), so a shutdown does not fail work the server already accepted.
// Handlers must not be invoked after Close. Any job that somehow remains
// after the workers exit is failed as cancelled.
func (s *Server) Close() {
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			j.entry.Error = "server shutting down"
			j.entry.Cancelled = true
			s.cancelled.Inc()
			s.failures.Inc()
			s.inflight.Add(-j.weight)
			j.wg.Done()
		default:
			return
		}
	}
}

// Handler returns the route mux: /query, /stream, /batch, /snapshot,
// /healthz (liveness), /readyz (readiness), /stats (the registry as JSON),
// /metrics (Prometheus text exposition) — every route wrapped in the
// panic-recovery middleware, so a handler crash answers 500 and leaves the
// process serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/stats", s.reg.JSONHandler())
	mux.Handle("/metrics", s.reg.Handler())
	if s.cfg.Cluster != nil {
		mux.Handle(cluster.FetchPath, s.cfg.Cluster.Handler())
	}
	return s.recoverMiddleware(mux)
}

// recoverMiddleware contains a panic escaping any handler: log it with the
// stack, count it, answer 500, keep the process alive. http.ErrAbortHandler
// is re-raised — it is net/http's own sentinel for "abandon this response",
// not a crash.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.internalErrors.Inc()
			s.failures.Inc()
			s.log.Error("contained panic in handler",
				"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			// Best-effort 500: if the handler already started the response
			// (a mid-stream panic), the write is a no-op on the status line
			// and the client sees a truncated body.
			httpError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// StartDrain marks the server as draining: /readyz starts failing so load
// balancers stop routing here, while in-flight and queued work still
// completes. Call at the beginning of a graceful shutdown, before closing
// listeners.
func (s *Server) StartDrain() { s.draining.Store(true) }

// maxRequestBytes caps a request body; a SQL statement (or a few hundred)
// has no business being bigger, and the bound keeps a hostile POST from
// ballooning memory.
const maxRequestBytes = 1 << 20

// effectiveAlpha resolves a request's resource ratio against the server
// default, without validating it.
func (s *Server) effectiveAlpha(req QueryRequest) float64 {
	if req.Alpha == 0 {
		return s.cfg.DefaultAlpha
	}
	return req.Alpha
}

// queryOptions assembles the per-call options for one request: the
// server-wide ExecOptions first, then the request's (possibly degraded)
// alpha, its floor and its tag. The request's alpha always governs the
// resource bound — a WithBudget pinned in Config.ExecOptions is reset
// (WithBudget(0) = unset), because an absolute budget would silently
// override every client's alpha and desynchronise the weighted batch
// admission, which weighs jobs by ⌈α·|D|⌉. Config.ExecOptions is for
// per-call execution options (cache bypass, η explanation, a remote
// fetcher, tracing), not resource bounds. The floor travels into the
// engine as WithMinAlpha: even if a future degradation path miscomputes,
// the core clamps the effective ratio back to the caller's SLO.
func (s *Server) queryOptions(req QueryRequest, alpha, floor float64) []beas.Option {
	opts := make([]beas.Option, 0, len(s.cfg.ExecOptions)+4)
	opts = append(opts, s.cfg.ExecOptions...)
	opts = append(opts, beas.WithBudget(0), beas.WithAlpha(alpha), beas.WithMinAlpha(floor))
	if req.Tag != "" {
		opts = append(opts, beas.WithTag(req.Tag))
	}
	return opts
}

// validate rejects requests that cannot run before any work happens.
func (s *Server) validate(req QueryRequest) (float64, int, error) {
	if req.SQL == "" {
		return 0, http.StatusBadRequest, fmt.Errorf("missing \"sql\"")
	}
	alpha := s.effectiveAlpha(req)
	if alpha <= 0 || alpha > 1 {
		return 0, http.StatusBadRequest, fmt.Errorf("alpha %g outside (0, 1]", alpha)
	}
	if req.MinAlpha < 0 || req.MinAlpha > 1 {
		return 0, http.StatusBadRequest, fmt.Errorf("minAlpha %g outside [0, 1]", req.MinAlpha)
	}
	return alpha, http.StatusOK, nil
}

// resolveDegradation applies the brownout controller to one validated
// request: the level to serve at, the effective α (shrunk toward the floor
// when browned out, never below it, never above the request) and the floor
// that travels into the engine.
func (s *Server) resolveDegradation(alpha float64, req QueryRequest) (level int, eff, floor float64) {
	level = s.currentLevel()
	floor = s.floorFor(req)
	if floor > alpha {
		floor = alpha
	}
	eff = degradeAlpha(alpha, floor, level)
	return level, eff, floor
}

// execute answers one request against the shared System under ctx and
// returns the answer with its metadata, or an HTTP status for the error
// cases. Under brownout the request runs at a degraded effective α (never
// below its floor); the metadata marks the degradation and reports the
// achieved α, still η-certified. A contained evaluator panic maps to 500
// and the internalErrors counter — the process, and every other request,
// keeps going.
//
// event names the serving surface for the audit trail ("query", "stream"
// or "batch"); every exit emits exactly one audit record whose
// budget_spent and eta are copied from the same Answer the client is about
// to receive. wantTrace traces the call (the span tree is then
// ans.ExecTrace); a configured SlowQuery threshold traces regardless, so
// the outliers it flags come with their full execution timeline.
func (s *Server) execute(ctx context.Context, req QueryRequest, event string, wantTrace bool) (*beas.Answer, AnswerMeta, int, error) {
	rec := obs.AuditRecord{
		Time:           time.Now().UTC().Format(time.RFC3339Nano),
		Event:          event,
		Tag:            req.Tag,
		SQLDigest:      obs.SQLDigest(req.SQL),
		AlphaRequested: s.effectiveAlpha(req),
	}
	alpha, code, err := s.validate(req)
	if err != nil {
		s.failures.Inc()
		rec.Status, rec.Err = code, err.Error()
		s.cfg.Audit.Record(rec)
		return nil, AnswerMeta{}, code, err
	}
	level, eff, floor := s.resolveDegradation(alpha, req)
	rec.AlphaEffective = eff
	rec.BrownoutLevel = level

	opts := s.queryOptions(req, eff, floor)
	var tr *beas.Trace
	if wantTrace || s.cfg.SlowQuery > 0 {
		tr = beas.NewTrace()
		opts = append(opts, beas.WithTrace(tr))
	}
	var remoteBefore int64
	if s.cfg.Cluster != nil {
		remoteBefore = s.cfg.Cluster.RemoteXs()
	}

	start := time.Now()
	ans, plan, err := s.cfg.System.QuerySQL(ctx, req.SQL, opts...)
	served := time.Since(start)
	rec.LatencyMicros = served.Microseconds()
	if s.cfg.Cluster != nil {
		// Attribution is approximate under concurrency: the counter delta
		// can include fetches of overlapping queries.
		rec.RemoteFetches = s.cfg.Cluster.RemoteXs() - remoteBefore
	}
	if err != nil {
		s.failures.Inc()
		code := http.StatusUnprocessableEntity
		if pe, ok := beas.IsInternalError(err); ok {
			s.internalErrors.Inc()
			s.log.Error("contained evaluator panic", "event", event, "sql_digest", rec.SQLDigest, "err", pe, "stack", string(pe.Stack))
			code = http.StatusInternalServerError
		} else {
			var pe *cluster.PeerError
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				code = http.StatusGatewayTimeout
			case errors.As(err, &pe):
				// Typed degraded path: a cluster peer was unreachable past the
				// retry budget — the answer is refused, never silently partial.
				code = http.StatusBadGateway
			}
		}
		rec.Status, rec.Err = code, err.Error()
		s.cfg.Audit.Record(rec)
		return nil, AnswerMeta{}, code, err
	}
	s.queries.Inc()
	s.latency.Observe(served.Seconds())
	s.brown.observe(served)

	meta := AnswerMeta{
		Rows:      ans.Rel.Len(),
		Eta:       ans.Eta,
		Exact:     ans.Exact,
		Alpha:     eff,
		Accessed:  ans.Stats.Accessed,
		Budget:    plan.Budget,
		CacheHit:  plan.CacheHit,
		PlanGenMS: float64(plan.GenTime.Microseconds()) / 1e3,
		ServedMS:  float64(served.Microseconds()) / 1e3,
	}
	if eff < alpha {
		meta.Degraded = true
		meta.RequestedAlpha = alpha
		meta.BrownoutLevel = level
		s.degradedServed.Inc()
	}
	if s.cfg.SlowQuery > 0 && served >= s.cfg.SlowQuery && tr != nil {
		s.log.Warn("slow query", "event", event, "sql_digest", rec.SQLDigest,
			"served_ms", float64(served.Microseconds())/1e3, "trace", "\n"+tr.String())
	}
	rec.BudgetGranted = plan.Budget
	rec.BudgetSpent = ans.Stats.Accessed
	rec.Eta = ans.Eta
	rec.Exact = ans.Exact
	rec.Truncated = ans.Stats.Truncated
	rec.Degraded = meta.Degraded
	rec.CacheHit = plan.CacheHit
	rec.PlanClass = plan.Class.String()
	rec.Status = http.StatusOK
	s.cfg.Audit.Record(rec)
	return ans, meta, http.StatusOK, nil
}

// response renders an executed answer as a /query or /batch payload: its
// columns, at most MaxRows rows and its metadata, plus the span tree when
// the call asked for one.
func (s *Server) response(ans *beas.Answer, meta AnswerMeta, wantTrace bool) *QueryResponse {
	resp := &QueryResponse{Columns: columns(ans), AnswerMeta: meta}
	for i, t := range ans.Rel.Tuples {
		if i >= s.cfg.MaxRows {
			resp.Truncated = true
			break
		}
		resp.Tuples = append(resp.Tuples, stringRow(t))
	}
	if wantTrace && ans.ExecTrace != nil {
		j := ans.ExecTrace.JSON()
		resp.Trace = &j
	}
	return resp
}

// columns returns the answer's column names.
func columns(ans *beas.Answer) []string {
	cols := make([]string, len(ans.Rel.Schema.Attrs))
	for i, a := range ans.Rel.Schema.Attrs {
		cols[i] = a.Name
	}
	return cols
}

// stringRow renders one tuple for the JSON wire format.
func stringRow(t beas.Tuple) []string {
	row := make([]string, len(t))
	for j, v := range t {
		row[j] = v.String()
	}
	return row
}

// shedIfBrownedOut refuses the request with 503 (and a Retry-After hint)
// when the current brownout level sheds this endpoint: /batch goes first at
// BrownoutShedBatch, /query and /stream only at BrownoutShedAll.
func (s *Server) shedIfBrownedOut(w http.ResponseWriter, shedAt int) bool {
	level := s.currentLevel()
	if level < shedAt {
		return false
	}
	s.shed.Inc()
	s.failures.Inc()
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("overloaded (brownout level %d): shedding load, retry later", level))
	return true
}

// decodeBody reads a JSON request body of at most maxRequestBytes into v.
// A body that does not parse answers 400 and counts as a failed request;
// the handler returns when decodeBody reports false. An empty body leaves
// v at its zero value for the handler's own validation to judge.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		s.failures.Inc()
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedIfBrownedOut(w, BrownoutShedAll) {
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	wantTrace := r.URL.Query().Get("debug") == "trace"
	ans, meta, code, err := s.execute(r.Context(), req, "query", wantTrace)
	if err != nil {
		httpError(w, code, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, s.response(ans, meta, wantTrace))
}

// streamFlushRows is how many NDJSON row lines are written between two
// explicit flushes on /stream.
const streamFlushRows = 64

// StreamSummary is the final NDJSON line of a /stream response: the same
// metadata a /query response carries.
type StreamSummary = AnswerMeta

// streamLine is one NDJSON line of a /stream response: exactly one field is
// set per line — columns first, then rows, then the summary.
type streamLine struct {
	Columns []string       `json:"columns,omitempty"`
	Row     []string       `json:"row,omitempty"`
	Summary *StreamSummary `json:"summary,omitempty"`
}

// handleStream answers one query through execute, exactly as /query does,
// and writes the answer as NDJSON: every row, uncapped, then the summary.
// Any failure answers its HTTP status before a line is written.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedIfBrownedOut(w, BrownoutShedAll) {
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ans, meta, code, err := s.execute(r.Context(), req, "stream", false)
	if err != nil {
		httpError(w, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// A writer that cannot flush (none in net/http) just buffers: Flush
	// errors are ignored, and a lost client shows as an Encode error.
	rc := http.NewResponseController(w)
	_ = enc.Encode(streamLine{Columns: columns(ans)})
	_ = rc.Flush()
	for i, t := range ans.Rel.Tuples {
		if err := enc.Encode(streamLine{Row: stringRow(t)}); err != nil {
			return // the client is gone; the answer was already counted
		}
		if (i+1)%streamFlushRows == 0 {
			_ = rc.Flush()
		}
	}
	_ = enc.Encode(streamLine{Summary: &meta})
	_ = rc.Flush()
	s.streams.Inc()
}

// jobWeight is the admission weight of one batch entry: its estimated
// access budget ⌈α·|D|⌉ (at least 1, and 1 when the dataset size is not
// configured — weighted admission then degrades to per-entry counting).
func (s *Server) jobWeight(alpha float64) int64 {
	if s.cfg.DBSize <= 0 || alpha <= 0 || alpha > 1 {
		return 1
	}
	w := int64(math.Ceil(alpha * float64(s.cfg.DBSize)))
	if w < 1 {
		w = 1
	}
	return w
}

// admit reserves w units of the in-flight budget, refusing when the cap
// would be exceeded — unless nothing else is in flight, so one over-cap job
// is still servable rather than permanently rejected.
func (s *Server) admit(w int64) bool {
	nw := s.inflight.Add(w)
	if nw > int64(s.cfg.BudgetCap) && nw != w {
		s.inflight.Add(-w)
		return false
	}
	return true
}

// runJob executes one queued batch query under its remaining deadline, or
// fails it when the deadline passed while it waited. Mid-flight expiry is
// abandoned at the executor's next cancellation point — an expired job no
// longer burns a worker to completion.
func (s *Server) runJob(j *job) {
	// Deferred calls run last-first: the job's weight and completion are
	// booked before wg.Done lets the batch handler answer.
	defer j.wg.Done()
	defer s.completed.Inc()
	defer s.inflight.Add(-j.weight)
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		j.entry.TimedOut = true
		j.entry.Error = "deadline exceeded before execution"
		s.expired.Inc()
		s.failures.Inc()
		return
	}
	ctx := j.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	ans, meta, _, err := s.execute(ctx, j.req, "batch", false)
	switch {
	case err == nil:
		j.entry.QueryResponse = *s.response(ans, meta, false)
	case errors.Is(err, context.DeadlineExceeded):
		j.entry.TimedOut = true
		j.entry.Error = "deadline exceeded mid-execution"
		s.expired.Inc()
	case errors.Is(err, context.Canceled):
		j.entry.Cancelled = true
		j.entry.Error = "cancelled: " + err.Error()
		s.cancelled.Inc()
	default:
		j.entry.Error = err.Error()
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedIfBrownedOut(w, BrownoutShedBatch) {
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "empty \"queries\"")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	deadline := time.Now().Add(s.cfg.DefaultDeadline)
	if req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	s.batches.Inc()

	start := time.Now()
	resp := &BatchResponse{Results: make([]BatchEntry, len(req.Queries))}
	// Weigh admission by the α the job will actually run at: under brownout
	// the degraded jobs are cheaper, so the same budget cap admits more of
	// them — that is precisely where the goodput of a browned-out server
	// comes from.
	level := s.currentLevel()
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		entry := &resp.Results[i]
		alpha := s.effectiveAlpha(q)
		floor := s.floorFor(q)
		weight := s.jobWeight(degradeAlpha(alpha, math.Min(floor, alpha), level))
		if !s.admit(weight) {
			// Weighted backpressure: the in-flight budget cap is reached;
			// fail fast instead of queueing work the pool cannot absorb.
			s.brown.noteAdmission(true)
			entry.Rejected = true
			entry.Error = "in-flight budget cap reached"
			resp.Rejected++
			s.rejected.Inc()
			s.failures.Inc()
			continue
		}
		wg.Add(1)
		j := &job{req: q, ctx: r.Context(), deadline: deadline, weight: weight, entry: entry, wg: &wg}
		select {
		case s.queue <- j:
			s.brown.noteAdmission(false)
			s.enqueued.Inc()
		default:
			// Queue backpressure: the channel is full; fail fast instead of
			// buffering without bound.
			s.brown.noteAdmission(true)
			s.inflight.Add(-weight)
			entry.Rejected = true
			entry.Error = "request queue full"
			resp.Rejected++
			s.rejected.Inc()
			s.failures.Inc()
			wg.Done()
		}
	}
	wg.Wait()
	resp.ServedMS = float64(time.Since(start).Microseconds()) / 1e3
	s.writeJSON(w, http.StatusOK, resp)
}

// SnapshotRequest is the optional body of a /snapshot call. An empty body
// (or empty dir) checkpoints a persisted system into its own directory,
// truncating the WAL; a dir writes a standalone snapshot copy there.
type SnapshotRequest struct {
	Dir string `json:"dir,omitempty"`
}

// handleSnapshot triggers a snapshot: the operator's knob for forcing a
// checkpoint before a deploy or taking a consistent copy for another host.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SnapshotRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	if req.Dir == "" {
		if !s.cfg.System.Persisted() {
			httpError(w, http.StatusConflict,
				"system is not persisted (start with -data, or pass {\"dir\": ...})")
			return
		}
		if err := s.cfg.System.Checkpoint(r.Context()); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else {
		if err := s.cfg.System.Snapshot(r.Context(), req.Dir); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"dir":    req.Dir,
		"tookMs": float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// handleHealthz is LIVENESS: it answers ok as long as the process serves
// HTTP at all, regardless of overload or durability trouble — restarts are
// for dead processes, and a browned-out server is alive by design. Routing
// decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"dataset":   s.cfg.Dataset,
		"size":      s.cfg.DBSize,
		"relations": s.cfg.Relations,
		"uptimeSec": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is READINESS: 503 while the server should not receive new
// traffic — draining for shutdown, shedding everything at max brownout, or
// serving memory-only because the persistence circuit is open or the WAL
// degraded. The body lists every failing condition so an operator sees why
// the instance left the pool.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining: shutdown in progress")
	}
	level, _ := s.brown.snapshot()
	if level >= BrownoutShedAll {
		reasons = append(reasons, fmt.Sprintf("brownout level %d: shedding all queries", level))
	}
	if s.cfg.System.Persisted() {
		ps := s.cfg.System.PersistStats()
		if ps.CircuitOpen {
			reasons = append(reasons, fmt.Sprintf("persistence circuit open: serving memory-only (last checkpoint error: %s)", ps.CheckpointErr))
		}
		if ps.WALDegraded {
			reasons = append(reasons, fmt.Sprintf("WAL degraded: mutations refused (%s)", ps.WALError))
		}
	}
	if s.cfg.Cluster != nil {
		reasons = append(reasons, s.cfg.Cluster.Ready()...)
	}
	if len(reasons) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "not ready",
			"reasons": reasons,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// httpError answers a JSON error body. It stays a plain function (no
// logging): error responses are part of normal service, not events.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("response encode failed", "err", err)
	}
}
