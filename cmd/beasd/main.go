// Command beasd serves resource-bounded approximate query answering over
// HTTP: the online half of the BEAS architecture (paper Fig. 2) as a
// long-running daemon. At startup it loads a dataset and either builds the
// access schema offline or — with -data — warm-starts from the directory's
// snapshot and replayed maintenance WAL, skipping dataset generation and
// the offline index construction entirely (the snapshot supplies tuples and
// ladders both). It then serves any number of concurrent clients from one
// shared System — parallel leaf execution, batched fetches, plan caching
// and all. The handlers live in internal/serve; this command only wires
// flags, dataset loading and process lifecycle.
//
// Usage:
//
//	beasd -addr :8080 -dataset tpch -scale 2 -alpha 0.01 \
//	      -data /var/lib/beasd/tpch
//
// Endpoints (see internal/serve and the README "Serving" and "Operations"
// sections):
//
//	POST /query    {"sql": "select ...", "alpha": 0.05, "tag": "team-a"}
//	               → answers + eta + access stats (alpha optional,
//	                 defaults to -alpha; tag optional, breaks the query
//	                 out in the beas_tag_* series)
//	POST /stream   same body, same execution → NDJSON: a columns line,
//	               one line per answer row (uncapped, flushed every 64
//	               rows), a final summary line with /query's metadata;
//	               a failed execution answers /query's status
//	POST /batch    {"queries": [{"sql": ...}, ...], "deadlineMs": 500}
//	               → pipelined execution through a bounded request queue
//	                 with budget-weighted admission (-budget-cap) and
//	                 per-request deadlines that abandon expired work
//	                 mid-flight
//	POST /snapshot → checkpoint a -data system (snapshot + WAL truncate),
//	               or {"dir": "/path"} for a standalone snapshot copy
//	GET  /healthz  → liveness + dataset summary (always 200 while the
//	               process runs; crashes are contained per request)
//	GET  /readyz   → readiness: 503 with reasons while draining, at max
//	               brownout, or with the persistence circuit open
//	GET  /stats    → the metrics registry as one JSON object keyed by
//	                 series name: query/batch counters, the latency
//	                 histogram, in-flight budget weight, per-tag
//	                 attribution, plan-cache stats, uptime, per-ladder
//	                 footprints, snapshot/WAL counters, brownout state
//	GET  /metrics  → the same registry in Prometheus text exposition
//	                 format
//
// Observability (see ARCHITECTURE.md §14): POST /query?debug=trace returns
// the query's span tree alongside the answer; -slow-query-ms traces every
// query and logs the span tree of the outliers; -audit-log appends one
// NDJSON audit record per query (filtered by -audit-filter); -pprof-addr
// serves net/http/pprof on a separate listener; -log-format switches the
// structured log between human text and JSON lines.
//
// With -peers the daemon joins a static cluster (see internal/cluster): a
// consistent-hash ring assigns ladder groups to the named nodes, every node
// additionally serves the POST /internal/fetch RPC to its peers, and any
// node answers any query by fanning the executor's batched fetches over the
// ring. A peer unreachable past the retry budget fails queries routed to it
// with 502 (typed *cluster.PeerError — never a silently partial answer),
// trips that peer's circuit on /readyz and shows in the beas_cluster_peer_*
// series.
// With -data each node checkpoints into its own subdirectory of the shared
// path, keyed by -node-id.
//
// Under overload the -brownout controller steps effective α down toward
// -min-alpha (answers stay η-certified; responses carry "degraded" and the
// achieved α) before shedding /batch and finally all query traffic; see the
// README "Operations" section.
//
// Shutdown is graceful: on SIGTERM/SIGINT the daemon stops accepting
// requests, drains in-flight HTTP work and the /batch queue, writes a final
// checkpoint (with -data) and only then exits.
//
// Example:
//
//	curl -s localhost:8080/query -d \
//	  '{"sql":"select o.status, count(o.ok) from orders as o group by o.status"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the -pprof-addr listener
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	beas "repro"
	"repro/internal/cluster"
	"repro/internal/fixture"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataset   = flag.String("dataset", "tpch", "dataset: tpch | airca | tfacc | example1")
		scale     = flag.Int("scale", 1, "dataset scale factor")
		seed      = flag.Int64("seed", 2017, "generator seed")
		alpha     = flag.Float64("alpha", 0.01, "default resource ratio in (0, 1]")
		maxTuple  = flag.Int("rows", 1000, "max answer rows returned per query")
		queue     = flag.Int("queue", 256, "batch request queue depth (backpressure bound)")
		workers   = flag.Int("batch-workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		maxBatch  = flag.Int("max-batch", 256, "max queries per /batch call")
		budgetCap = flag.Int("budget-cap", 0, "in-flight batch budget cap in tuples, summed over admitted jobs' est. budgets (0 = 4x dataset size)")
		dataDir   = flag.String("data", "", "persistence directory: warm-start from its snapshot + WAL, checkpoint on shutdown (empty = in-memory only)")
		ckptEvery = flag.Int("checkpoint-every", 0, "with -data: WAL records between automatic checkpoints (0 = default, negative disables)")
		walSync   = flag.Bool("wal-sync", false, "with -data: fsync the WAL after every maintenance record")
		ckptRetry = flag.Int("checkpoint-retries", 0, "with -data: consecutive checkpoint failures before the circuit opens and serving goes memory-only (0 = default 5)")
		brownout  = flag.String("brownout", "auto", "overload brownout mode: auto | off | 0-3 (pinned level)")
		minAlpha  = flag.Float64("min-alpha", 0, "floor the brownout controller may not degrade effective alpha below (0 = default 0.02)")
		peers     = flag.String("peers", "", "static cluster members as comma-separated host:port or id=host:port entries (this node included); empty = single-node")
		nodeID    = flag.String("node-id", "", "this node's ring identity (default: its own -peers entry matching -addr, else -addr)")

		logFormat   = flag.String("log-format", "text", "structured log format: text | json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off). Keep it off public interfaces.")
		auditPath   = flag.String("audit-log", "", "append one NDJSON audit record per query to this file (empty = off; \"-\" = stdout)")
		auditFilter = flag.String("audit-filter", "", "audit allowlist, e.g. \"events=query,batch;tags=team-a\" (empty = audit everything)")
		slowQueryMS = flag.Int("slow-query-ms", 0, "trace every query and log the span tree of any slower than this many milliseconds (0 = off)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
		os.Exit(2)
	}
	// Contained engine panics (parallel leaves, batch workers, peer
	// fetches) become structured error events at the point of recovery,
	// even on paths that never surface through an HTTP response.
	guard.SetReporter(func(pe *guard.PanicError) {
		logger.Error("contained engine panic", "op", pe.Op,
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	})

	members, self, err := parsePeers(*peers, *nodeID, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
		os.Exit(2)
	}
	// Cluster members sharing a -data path each checkpoint into their own
	// subdirectory: two nodes writing one snapshot dir would corrupt both.
	nodeDataDir := *dataDir
	if nodeDataDir != "" && len(members) > 0 {
		nodeDataDir = filepath.Join(nodeDataDir, sanitizeNodeID(self))
	}
	sys, size, rels, err := open(*dataset, *scale, *seed, nodeDataDir, *ckptEvery, *ckptRetry, *walSync, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
		os.Exit(2)
	}
	logger.Info("dataset ready", "dataset", *dataset, "tuples", size,
		"relations", rels)

	var node *cluster.Node
	var execOpts []beas.Option
	if len(members) > 0 {
		node, err = cluster.New(cluster.Config{
			NodeID: self,
			Peers:  members,
			Schema: sys.Scheme().Access(),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
			os.Exit(2)
		}
		execOpts = append(execOpts, beas.WithRemoteFetcher(node.Fetcher()))
		logger.Info("cluster node joined ring", "node", self, "ring", len(members), "peers", len(members)-1)
	}

	audit, auditClose, err := openAudit(*auditPath, *auditFilter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// net/http/pprof registered its handlers on http.DefaultServeMux at
		// import; a dedicated listener keeps profiling off the serving port
		// (and off the load balancer).
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	srv, err := serve.New(serve.Config{
		System:       sys,
		DefaultAlpha: *alpha,
		MaxRows:      *maxTuple,
		ExecOptions:  execOpts,
		Dataset:      *dataset,
		DBSize:       size,
		Relations:    rels,
		QueueDepth:   *queue,
		Workers:      *workers,
		MaxBatch:     *maxBatch,
		BudgetCap:    *budgetCap,
		Brownout: serve.BrownoutConfig{
			Mode:     *brownout,
			MinAlpha: *minAlpha,
		},
		Cluster:   node,
		Audit:     audit,
		SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
		Logger:    logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "beasd: %v\n", err)
		os.Exit(2)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		logger.Info("listening", "addr", *addr, "default_alpha", *alpha)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listener failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Graceful shutdown, in dependency order: stop accepting and drain
	// in-flight HTTP work, drain the accepted /batch backlog, write a final
	// checkpoint so the next start is warm, release the WAL.
	logger.Info("shutting down: draining requests")
	srv.StartDrain() // readiness fails first so balancers stop routing here
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	srv.Close()
	if node != nil {
		node.Close()
	}
	if sys.Persisted() {
		// A fresh timeout: the drain above may have consumed the whole
		// shutdown budget, and a dead context would silently skip the
		// checkpoint that makes the next start warm.
		ckptCtx, ckptCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer ckptCancel()
		logger.Info("final checkpoint")
		if err := sys.Checkpoint(ckptCtx); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		}
	}
	if err := auditClose(); err != nil {
		logger.Warn("audit close", "err", err)
	}
	if err := sys.Close(); err != nil {
		logger.Warn("close", "err", err)
	}
	logger.Info("bye")
}

// openAudit builds the audit log for the -audit-log/-audit-filter flags:
// nil when disabled, stdout for "-", otherwise an append-opened file. The
// returned closer drains the ring and releases the file.
func openAudit(path, filterSpec string) (*obs.AuditLog, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	filter, err := obs.ParseAuditFilter(filterSpec)
	if err != nil {
		return nil, nil, err
	}
	if path == "-" {
		a := obs.NewAuditLog(os.Stdout, filter, 0)
		return a, a.Close, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("audit log: %w", err)
	}
	a := obs.NewAuditLog(f, filter, 0)
	return a, func() error {
		err := a.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// parsePeers resolves the -peers/-node-id flags into the full member map
// (ID → base URL, this node included) and this node's own ID. Entries are
// "host:port" (the address doubles as the ID) or "id=host:port". When
// -node-id is empty, the node identifies itself as the unique member whose
// address ends with -addr (so ":8080" matches "localhost:8080").
func parsePeers(spec, nodeID, addr string) (map[string]string, string, error) {
	if spec == "" {
		return nil, "", nil
	}
	members := make(map[string]string)
	var ids []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, target := entry, entry
		if i := strings.IndexByte(entry, '='); i >= 0 {
			id, target = entry[:i], entry[i+1:]
		}
		if id == "" || target == "" {
			return nil, "", fmt.Errorf("bad -peers entry %q", entry)
		}
		if !strings.Contains(target, "://") {
			target = "http://" + target
		}
		if _, dup := members[id]; dup {
			return nil, "", fmt.Errorf("duplicate -peers entry %q", id)
		}
		members[id] = target
		ids = append(ids, id)
	}
	if len(members) == 0 {
		return nil, "", fmt.Errorf("-peers is set but names no members")
	}
	if nodeID != "" {
		if _, ok := members[nodeID]; !ok {
			return nil, "", fmt.Errorf("-node-id %q is not among the -peers members", nodeID)
		}
		return members, nodeID, nil
	}
	var matches []string
	for _, id := range ids {
		if id == addr || strings.HasSuffix(members[id], addr) {
			matches = append(matches, id)
		}
	}
	if len(matches) != 1 {
		return nil, "", fmt.Errorf("cannot identify this node among -peers by -addr %q (%d matches); pass -node-id", addr, len(matches))
	}
	return members, matches[0], nil
}

// sanitizeNodeID maps a node ID to a filesystem-safe directory name for the
// per-node persistence subdirectory.
func sanitizeNodeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, id)
}

// open loads the dataset schema and builds or warm-starts the System. With a
// persistence directory the tuples and the access schema both come from its
// snapshot when one exists (plus WAL replay) — dataset generation is skipped
// entirely, not just the index build. Otherwise the dataset is generated,
// the schema built cold, and the initial snapshot written for the next
// start.
func open(dataset string, scale int, seed int64, dataDir string, ckptEvery, ckptRetry int, walSync bool, logger *obs.Logger) (*beas.System, int, int, error) {
	db, populate, build, err := loadDataset(dataset, scale, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	if dataDir == "" {
		if err := populate(db); err != nil {
			return nil, 0, 0, err
		}
		as, err := build(db)
		if err != nil {
			return nil, 0, 0, err
		}
		return beas.Open(db, as), db.Size(), len(db.Names()), nil
	}
	opts := []beas.PersistOption{
		beas.WithSchemaBuilder(build),
		beas.WithCheckpointEvery(ckptEvery),
		beas.WithCheckpointRetries(ckptRetry),
		beas.WithPersistLogf(logger.Logf),
	}
	if walSync {
		opts = append(opts, beas.WithWALSync())
	}
	start := time.Now()
	sys, err := beas.OpenPersistedSchema(context.Background(), db, dataDir, populate, opts...)
	if err != nil {
		return nil, 0, 0, err
	}
	ps := sys.PersistStats()
	mode := "cold start (dataset generated, initial snapshot written)"
	if ps.WarmStart {
		mode = fmt.Sprintf("warm start (%d WAL records replayed, generation skipped)", ps.Replayed)
	}
	logger.Info("persistence opened", "dir", dataDir, "mode", mode,
		"took", time.Since(start).Round(time.Millisecond))
	return sys, db.Size(), len(db.Names()), nil
}

// loadDataset returns the named dataset as a schema-only shell plus its
// deferred tuple generator and access-schema builder. Persisted warm starts
// invoke neither: the snapshot supplies tuples and ladders both. Cold starts
// and in-memory runs invoke populate before build.
func loadDataset(dataset string, scale int, seed int64) (*beas.Database, func(*beas.Database) error, func(*beas.Database) (*beas.AccessSchema, error), error) {
	if strings.EqualFold(dataset, "example1") {
		db := fixture.Example1Schema()
		populate := func(db *beas.Database) error {
			fixture.PopulateExample1(db, seed, 200*scale, 150*scale)
			return nil
		}
		return db, populate, func(db *beas.Database) (*beas.AccessSchema, error) {
			return fixture.SchemaA0(db)
		}, nil
	}
	d, err := workload.ByName(dataset, scale)
	if err != nil {
		return nil, nil, nil, err
	}
	populate := func(*beas.Database) error { return d.Populate(seed) }
	return d.DB, populate, func(*beas.Database) (*beas.AccessSchema, error) {
		return d.AccessSchema()
	}, nil
}
