package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	beas "repro"
)

// rounds is how many slices the timed phase is cut into. A metric's value is
// the median of its round values, so one disturbed slice does not move it.
const rounds = 3

// setupBudget is the time after which set-up is not repeated a third time.
const setupBudget = 8 * time.Second

// engine is one set-up of a workload: the system, and for the served
// workload the HTTP server in front of it.
type engine struct {
	sys    *beas.System
	srv    *server
	dir    string        // persistence directory (lib_read_write)
	build  time.Duration // access-schema construction within the set-up
	opened time.Duration // OpenPersisted within the set-up
}

func (e *engine) close() error {
	var err error
	if e.srv != nil {
		err = e.srv.close()
	}
	if cerr := e.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome is what a client saw of one operation.
type outcome struct {
	eta                   float64
	accessed, budget      int
	rows                  int
	exact, truncated, hit bool
	plan                  *beas.Plan    // in-process queries
	bytes                 int           // served queries: response size
	served                time.Duration // served queries: the server's own timer
}

// wireResponse is the part of a /query response the client checks.
type wireResponse struct {
	Rows     int     `json:"rows"`
	Eta      float64 `json:"eta"`
	Exact    bool    `json:"exact"`
	Accessed int     `json:"accessed"`
	Budget   int     `json:"budget"`
	CacheHit bool    `json:"cacheHit"`
	ServedMS float64 `json:"servedMs"`
	Degraded bool    `json:"degraded"`
}

// client is one closed-loop caller: it sends its next operation when the
// previous one has answered.
type client struct {
	seq   sequence
	httpc *http.Client
	buf   bytes.Buffer

	lat, wlat []float64 // µs, of the current round
	class     []string  // class of each lat entry
	fails     []string  // what went wrong in the current round
	tally
}

// tally counts what the operations of a phase did.
type tally struct {
	queries, writes, writeOps int
	hits, non200              int
	accessed, budget          int
	rows, bytes               int
	exact, truncated          int
	eta                       float64
	overhead                  []float64 // served queries: client latency − servedMs (µs)
}

func (t *tally) add(o tally) {
	t.queries += o.queries
	t.writes += o.writes
	t.writeOps += o.writeOps
	t.hits += o.hits
	t.non200 += o.non200
	t.accessed += o.accessed
	t.budget += o.budget
	t.rows += o.rows
	t.bytes += o.bytes
	t.exact += o.exact
	t.truncated += o.truncated
	t.eta += o.eta
	t.overhead = append(t.overhead, o.overhead...)
}

func (t *tally) note(out outcome, lat time.Duration, served bool) {
	t.queries++
	t.accessed += out.accessed
	t.budget += out.budget
	t.rows += out.rows
	t.bytes += out.bytes
	t.eta += out.eta
	if out.hit {
		t.hits++
	}
	if out.exact {
		t.exact++
	}
	if out.truncated {
		t.truncated++
	}
	if served {
		t.overhead = append(t.overhead, us(lat-out.served))
	}
}

// instance is one workload resident in the process: its data, its engine, its
// clients and everything measured so far.
type instance struct {
	def  *workloadDef
	spec *spec
	sc   scale
	seed int64
	aux  bool // measured only as the base of another workload's ratio
	ctx  context.Context

	d       *dataset
	pool    []*item
	eng     *engine
	clients []*client
	digest  string

	datagen    time.Duration
	setups     []float64 // seconds
	heapMB     float64
	dbTuples   int
	indexSize  int // samples resident in the access schema
	dropped    int
	verified   tally
	timed      tally
	rounds     map[string][]float64 // per timed metric, its value in each round
	lat, wlat  []float64            // all rounds pooled
	classLat   map[string][]float64
	mem        runtime.MemStats // deltas over the timed phase
	checkpoint int64            // checkpoints completed during the timed phase
	metrics    map[string]float64
	layers     []layerRow

	attempted, failed int
	notes             []string
	live              map[string]beas.Tuple // acknowledged inserts not yet deleted
	gone              []beas.Tuple          // acknowledged deletes
}

func (in *instance) fail(format string, args ...any) {
	in.failed++
	if len(in.notes) < 5 {
		in.notes = append(in.notes, fmt.Sprintf(format, args...))
	}
}

// newInstance generates the workload's inputs, sets it up sc.setups times
// (keeping the last), measures the heap it holds and runs the verification
// pass.
func newInstance(ctx context.Context, cfg config, def *workloadDef, aux bool) (_ *instance, err error) {
	sc, seed := cfg.scale, cfg.seed
	in := &instance{def: def, spec: cfg.spec, sc: sc, seed: seed, aux: aux, ctx: ctx,
		classLat: map[string][]float64{}, rounds: map[string][]float64{}, metrics: map[string]float64{}, live: map[string]beas.Tuple{}}
	defer func() {
		if err != nil {
			in.removeDir()
		}
	}()
	heap0 := liveHeap()

	t0 := time.Now()
	in.d = genTPCH(def.sf, seed)
	if in.pool, err = def.pool(in.d, def.poolSize, seed); err != nil {
		return nil, fmt.Errorf("%s: generate requests: %w", def.name, err)
	}
	in.datagen = time.Since(t0)
	in.dbTuples = in.d.DB.Size()

	for c := 0; c < def.clients; c++ {
		in.clients = append(in.clients, &client{httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}})
	}
	n := sc.setups
	if aux {
		n = 1
	}
	setupStart := time.Now()
	for i := 0; i < n; i++ {
		// Two set-ups of the largest dataset already take longer than a
		// timed phase; a third would not fit the benchmark's time cap.
		if i >= 2 && time.Since(setupStart) > setupBudget {
			break
		}
		if in.eng != nil {
			if err := in.eng.close(); err != nil {
				return nil, fmt.Errorf("%s: close set-up %d: %w", def.name, i, err)
			}
			in.removeDir()
			in.eng = nil
		}
		if err := in.setup(i); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
	}
	in.heapMB = (liveHeap() - heap0) / 1e6
	in.indexSize = indexTuples(in.eng.sys)

	in.verify()
	if len(in.pool) == 0 {
		return nil, fmt.Errorf("%s: no request survived verification", def.name)
	}
	in.digest = in.requestDigest()
	for c, cl := range in.clients {
		cl.seq = def.sequence(in, seed, c)
	}
	return in, nil
}

func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func (in *instance) removeDir() {
	if in.eng != nil && in.eng.dir != "" {
		os.RemoveAll(in.eng.dir)
	}
}

// setup takes the generated data to a first answer: index build (or a cold
// OpenPersisted, which also writes the initial snapshot), server start, one
// query.
func (in *instance) setup(attempt int) error {
	runtime.GC() // the build allocates heavily: start every set-up from a collected heap
	t0 := time.Now()
	e := &engine{}
	build := func(*beas.Database) (*beas.AccessSchema, error) {
		b0 := time.Now()
		as, err := buildSchema(in.d)
		e.build = time.Since(b0)
		return as, err
	}
	if in.def.persisted {
		e.dir = filepath.Join(outDir(), fmt.Sprintf("data-%s-%d-%d", in.def.name, os.Getpid(), attempt))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return err
		}
		// Default flush policy: no WithWALSync, so an acknowledged write has
		// reached the OS, not the disk.
		sys, err := beas.OpenPersisted(in.ctx, in.d.DB, e.dir,
			beas.WithSchemaBuilder(build), beas.WithCheckpointEvery(checkEvery))
		if err != nil {
			return err
		}
		e.sys, e.opened = sys, time.Since(t0)
	} else {
		as, err := build(in.d.DB)
		if err != nil {
			return err
		}
		e.sys = beas.Open(in.d.DB, as)
	}
	if in.def.served {
		srv, err := startServer(e.sys, in.d)
		if err != nil {
			return err
		}
		e.srv = srv
	}
	in.eng = e
	var err error
	for _, it := range in.pool { // first answer: the first request the planner accepts
		if _, err = in.do(in.clients[0], op{it: it}); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("no first answer: %w", err)
	}
	in.setups = append(in.setups, time.Since(t0).Seconds())
	return nil
}

// do performs one operation the way the workload's users would.
func (in *instance) do(cl *client, o op) (outcome, error) {
	switch {
	case o.write != nil:
		applied, err := in.eng.sys.Apply(in.ctx, o.write)
		if err != nil {
			return outcome{}, err
		}
		for i, ok := range applied {
			if !ok {
				return outcome{}, fmt.Errorf("apply: op %d (%v) changed nothing", i, o.write[i].Kind)
			}
		}
		in.acknowledge(o.write)
		return outcome{}, nil
	case in.def.served:
		return in.post(cl, o.it)
	}
	var (
		ans *beas.Answer
		p   = o.it.plan
		err error
	)
	if p != nil {
		ans, err = in.eng.sys.Execute(in.ctx, p)
	} else {
		ans, p, err = in.eng.sys.Query(in.ctx, o.it.q, o.it.opts...)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{eta: ans.Eta, accessed: ans.Stats.Accessed, budget: p.Budget, rows: ans.Rel.Len(),
		exact: ans.Exact, truncated: ans.Stats.Truncated, hit: p.CacheHit, plan: p}, nil
}

func (in *instance) post(cl *client, it *item) (outcome, error) {
	resp, err := cl.httpc.Post(in.eng.srv.url+"/query", "application/json", bytes.NewReader(it.body))
	if err != nil {
		return outcome{}, err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		cl.non200++
		return outcome{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(cl.buf.String()))
	}
	var w wireResponse
	if err := json.Unmarshal(cl.buf.Bytes(), &w); err != nil {
		return outcome{}, fmt.Errorf("response: %w", err)
	}
	if w.Degraded {
		return outcome{}, fmt.Errorf("answer degraded by brownout on an unsaturated server")
	}
	return outcome{eta: w.Eta, accessed: w.Accessed, budget: w.Budget, rows: w.Rows, exact: w.Exact, hit: w.CacheHit,
		bytes: cl.buf.Len(), served: time.Duration(w.ServedMS * 1e6)}, nil
}

// acknowledge records a batch Apply reported applied, for the recovery check.
func (in *instance) acknowledge(ops []beas.Op) {
	for _, o := range ops {
		if o.Kind == beas.OpInsert {
			in.live[o.Tuple.Key()] = o.Tuple
		} else {
			delete(in.live, o.Tuple.Key())
			in.gone = append(in.gone, o.Tuple)
		}
	}
}

// certificate checks the part of the answer's promise that needs no oracle:
// the budget was respected and η is a ratio.
func certificate(out outcome) error {
	if out.accessed > out.budget {
		return fmt.Errorf("accessed %d tuples with a budget of %d", out.accessed, out.budget)
	}
	if !(out.eta >= 0 && out.eta <= 1) {
		return fmt.Errorf("eta %v outside [0,1]", out.eta)
	}
	return nil
}

// rejected reports a query the planner refuses deterministically (the
// relaxed-join blow-up guard); such a candidate is dropped from its pool, as
// a client would drop a query the server tells it is malformed.
func rejected(err error) bool { return strings.Contains(err.Error(), "exceeds limit") }

// verify answers every request of the pools once: it drops the requests the
// planner rejects, checks each certificate, compares the first sc.oracle
// answers with exact evaluation, and takes the counts that are deterministic
// for a seed (η, tuples accessed, exactness). It also warms the plan cache.
func (in *instance) verify() {
	sys, cl := in.eng.sys, in.clients[0]
	kept := in.pool[:0]
	for i, it := range in.pool {
		in.attempted++
		var err error
		if in.def.prepared {
			it.plan, err = sys.Plan(in.ctx, it.q, it.opts...)
		}
		var out outcome
		if err == nil {
			out, err = in.do(cl, op{it: it})
		}
		if err != nil {
			if rejected(err) {
				in.attempted--
				in.dropped++
				continue
			}
			in.fail("verify %s #%d: %v", in.def.name, i, err)
			continue
		}
		kept = append(kept, it)
		if err := certificate(out); err != nil {
			in.fail("verify %s #%d: %v", in.def.name, i, err)
		}
		if in.def.served {
			// The served answer must be the in-process answer.
			ans, _, err := sys.Query(in.ctx, it.q, it.opts...)
			if err != nil {
				in.fail("verify %s #%d in-process: %v", in.def.name, i, err)
				continue
			}
			if ans.Eta != out.eta || ans.Stats.Accessed != out.accessed || ans.Rel.Len() != out.rows || ans.Exact != out.exact {
				in.fail("verify %s #%d: served (eta %v, accessed %d, rows %d) differs from in-process (eta %v, accessed %d, rows %d)",
					in.def.name, i, out.eta, out.accessed, out.rows, ans.Eta, ans.Stats.Accessed, ans.Rel.Len())
			}
			out.truncated = ans.Stats.Truncated
		}
		in.verified.note(out, 0, false)
		if len(kept) <= in.sc.oracle {
			in.checkOracle(i, it)
		}
	}
	in.pool = kept
}

// checkOracle evaluates the query exactly and checks the certificate against
// it: realised accuracy is at least η, and an answer called exact is Q(D).
func (in *instance) checkOracle(i int, it *item) {
	ans, _, err := in.eng.sys.Query(in.ctx, it.q, it.opts...)
	if err != nil {
		in.fail("oracle %s #%d: %v", in.def.name, i, err)
		return
	}
	rep, err := beas.Accuracy(in.d.DB, it.q, ans.Rel)
	if err != nil {
		in.fail("oracle %s #%d: %v", in.def.name, i, err)
		return
	}
	if rep.Accuracy+1e-9 < ans.Eta {
		in.fail("oracle %s #%d: accuracy %v below certified eta %v", in.def.name, i, rep.Accuracy, ans.Eta)
	}
	if ans.Exact && rep.Accuracy < 1-1e-9 {
		in.fail("oracle %s #%d: answer called exact has accuracy %v", in.def.name, i, rep.Accuracy)
	}
}

// requestDigest identifies the request sequence of client 0: equal seeds
// must give equal digests.
func (in *instance) requestDigest() string {
	h := sha256.New()
	seq := in.def.sequence(in, in.seed, 0)
	for i := 0; i < 2000; i++ {
		o := seq.next()
		if o.it != nil {
			fmt.Fprintf(h, "q %s %s\n", beas.RenderSQL(o.it.q), o.it.body)
			continue
		}
		for _, w := range o.write {
			fmt.Fprintf(h, "w %v %s\n", w.Kind, w.Tuple.Key())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// loop runs the client's operations in whole passes over its pool (for a
// drawing sequence every operation is one) and stops at the pass boundary
// nearest the deadline, after at least one pass.
func (in *instance) loop(cl *client, deadline time.Time) {
	passStart := time.Now()
	for n := 0; ; n++ {
		if n > 0 && cl.seq.passDone() {
			now := time.Now()
			if now.Add(now.Sub(passStart) / 2).After(deadline) {
				return
			}
			passStart = now
		}
		o := cl.seq.next()
		t0 := time.Now()
		out, err := in.do(cl, o)
		lat := time.Since(t0)
		if err == nil && o.it != nil {
			err = certificate(out)
		}
		if err != nil {
			cl.fails = append(cl.fails, err.Error())
		}
		if o.write != nil {
			cl.writes++
			cl.writeOps += len(o.write)
			cl.wlat = append(cl.wlat, us(lat))
			continue
		}
		cl.lat = append(cl.lat, us(lat))
		cl.class = append(cl.class, o.it.class)
		cl.note(out, lat, in.def.served)
	}
}

// round runs one slice of the timed phase with tracing off: every client in
// its closed loop, CPU and allocation counters read around it.
func (in *instance) round(d time.Duration) {
	for _, cl := range in.clients {
		cl.lat, cl.wlat, cl.class, cl.fails, cl.tally = cl.lat[:0], cl.wlat[:0], cl.class[:0], nil, tally{}
	}
	before := in.eng.sys.PersistStats()
	var m0, m1 runtime.MemStats
	runtime.GC() // every slice starts from the same heap state
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for _, cl := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.loop(cl, deadline)
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	in.mem.Mallocs += m1.Mallocs - m0.Mallocs
	in.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	in.mem.NumGC += m1.NumGC - m0.NumGC
	in.mem.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
	in.checkpoint += in.eng.sys.PersistStats().Checkpoints - before.Checkpoints

	var lat, wlat []float64
	var sum tally
	for _, cl := range in.clients {
		lat = append(lat, cl.lat...)
		wlat = append(wlat, cl.wlat...)
		for i, l := range cl.lat {
			in.classLat[cl.class[i]] = append(in.classLat[cl.class[i]], l)
		}
		sum.add(cl.tally)
		for _, f := range cl.fails {
			in.fail("%s: %s", in.def.name, f)
		}
	}
	in.timed.add(sum)
	in.attempted += sum.queries + sum.writes
	in.lat = append(in.lat, lat...)
	in.wlat = append(in.wlat, wlat...)
	for name, v := range map[string]float64{
		"query_p50_us": percentile(lat, 0.5), "query_p95_us": percentile(lat, 0.95),
		"throughput_qps":   ratio(float64(sum.queries), wall.Seconds()),
		"cpu_us_per_query": ratio(us(cpu), float64(sum.queries)),
		"write_p50_us":     percentile(wlat, 0.5), "write_p95_us": percentile(wlat, 0.95),
	} {
		in.rounds[name] = append(in.rounds[name], v)
	}
}

// tracedPass continues the client-0 sequence single-threaded with a span
// around every call into a layer.
func (in *instance) tracedPass(budget time.Duration) error {
	cl := in.clients[0]
	tr := newTracer(in.sc.tracedOps)
	var hitLookup []float64
	deadline := time.Now().Add(budget)
	for tr.op = 0; tr.op < in.sc.tracedOps && time.Now().Before(deadline); tr.op++ {
		in.attempted++
		lookup, err := in.tracedOp(tr, cl, cl.seq.next())
		if err != nil {
			in.fail("%s traced pass: %v", in.def.name, err)
		} else if lookup != 0 {
			hitLookup = append(hitLookup, lookup)
		}
	}
	lt := tr.table()
	in.layers = lt.rows()
	m := in.metrics
	m["sqlparser.parse_us"] = median(lt.dur["sqlparser.parse"])
	m["plancache.hit_lookup_us"] = median(hitLookup)
	m["core.plan_cold_us"] = median(lt.dur["core.plan"])
	m["chase.chase_us"] = median(lt.dur["chase.chase"])
	m["plan.leaf_execute_us"] = median(lt.dur["plan.leaf_execute"])
	m["core.execute_us"] = median(lt.dur["core.execute"])
	m["core.combine_us"] = median(lt.self["core.execute"])
	m["bench.layer_sum_residual_pct"] = lt.residualPct()
	m["access.fetch_batch_us"], m["access.fetch_tuples"] = fetchProbe(in.eng.sys, in.seed, in.sc.fetchReps)
	return tr.write(outDir(), in.def.name)
}

// tracedOp performs one operation as its users would, under a root span, and
// then attributes the root's time to the layers beneath it: the server's own
// timer as a derived child, and each inner call made again as a replayed
// child — parse; on a served plan-cache hit the in-process System.Query the
// handler makes; on a miss cold planning with its chase; execution with its
// leaves. For a served hit it returns what the engine's plan cache cost: the
// replayed System.Query, a hit again, minus the replayed System.Execute of the
// plan it handed back (both on warm processor caches; 0 otherwise).
func (in *instance) tracedOp(tr *tracer, cl *client, o op) (hitLookupUS float64, err error) {
	sys := in.eng.sys
	if o.write != nil {
		_, err := tr.timed("persist.apply", -1, func() error { _, err := in.do(cl, o); return err })
		return 0, err
	}
	it := o.it
	var out outcome
	name := "core.query"
	switch {
	case in.def.served:
		name = "serve.http"
	case in.def.prepared:
		name = "core.execute"
	}
	root, err := tr.timed(name, -1, func() (err error) { out, err = in.do(cl, o); return err })
	if err == nil {
		err = certificate(out)
	}
	if err != nil {
		return 0, err
	}
	if in.def.prepared {
		_, err = tr.timed("plan.leaf_execute", root, func() error { return executeLeaves(in.ctx, sys, it.plan) })
		return 0, err
	}
	parent, p, hitQuery := root, out.plan, -1
	if in.def.served {
		parent = tr.derived("serve.served", root, out.served)
		if _, err := tr.timed("sqlparser.parse", parent, func() error { _, err := beas.ParseSQL(it.sql); return err }); err != nil {
			return 0, err
		}
		if out.hit {
			hitQuery, err = tr.timed("core.query", parent, func() (err error) { _, p, err = sys.Query(in.ctx, it.q, it.opts...); return err })
			if err != nil {
				return 0, err
			}
			parent = hitQuery
		}
	}
	if !out.hit {
		ps, err := tr.timed("core.plan", parent, func() (err error) {
			p, err = sys.Plan(in.ctx, it.q, append([]beas.Option{beas.WithCacheBypass()}, it.opts...)...)
			return err
		})
		if err != nil {
			return 0, err
		}
		if _, err := tr.timed("chase.chase", ps, func() error { return chaseLeaves(sys, p) }); err != nil {
			return 0, err
		}
	}
	es, err := tr.timed("core.execute", parent, func() error { _, err := sys.Execute(in.ctx, p); return err })
	if err != nil {
		return 0, err
	}
	if hitQuery >= 0 && p.CacheHit {
		hitLookupUS = tr.spans[hitQuery].dur() - tr.spans[es].dur()
	}
	_, err = tr.timed("plan.leaf_execute", es, func() error { return executeLeaves(in.ctx, sys, p) })
	return hitLookupUS, err
}

// finish runs the workload's closing checks, releases it and assembles its
// result.
func (in *instance) finish() workloadResult {
	m := in.metrics
	if in.def.persisted {
		in.recover()
	}
	if err := in.eng.close(); err != nil {
		in.fail("%s: close: %v", in.def.name, err)
	}
	for _, cl := range in.clients {
		cl.httpc.CloseIdleConnections()
	}
	in.removeDir()

	for name, vs := range in.rounds { // a timed metric is the median of its round values
		m[name] = median(vs)
	}
	p50s := in.rounds["query_p50_us"]
	queries := float64(in.timed.queries)
	v := in.verified

	m["setup_s"] = median(in.setups)
	m["eta_mean"] = ratio(v.eta, float64(v.queries))
	m["index_heap_mb"] = in.heapMB

	m["failed_share"] = ratio(float64(in.failed), float64(in.attempted))

	p99 := percentile(in.lat, 0.99)
	if in.def.served {
		m["serve.overhead_us"] = median(in.timed.overhead)
		m["serve.response_bytes_per_query"] = ratio(float64(in.timed.bytes), queries)
		m["serve.rows_per_query"] = ratio(float64(in.timed.rows), queries)
		m["serve.non200"] = float64(in.timed.non200)
		m["serve.query_p99_us"] = p99
	} else {
		m["core.query_p99_us"] = p99
	}
	m["plancache.hit_rate"] = ratio(float64(in.timed.hits), queries)
	m["core.tuples_per_query"] = ratio(float64(v.accessed), float64(v.queries))
	m["core.budget_utilisation"] = ratio(float64(v.accessed), float64(v.budget))
	m["core.exact_share"] = ratio(float64(v.exact), float64(v.queries))
	m["core.truncated_share"] = ratio(float64(v.truncated), float64(v.queries))
	m["core.p50_us_spc"] = median(in.classLat["spc"])
	m["core.p50_us_ra"] = median(in.classLat["ra"])
	m["core.p50_us_agg"] = median(in.classLat["agg"])
	m["access.build_s"] = in.eng.build.Seconds()
	m["access.index_tuples_per_db_tuple"] = ratio(float64(in.indexSize), float64(in.dbTuples))
	m["persist.cold_open_s"] = in.eng.opened.Seconds()
	m["persist.apply_us_per_op"] = ratio(mean(in.wlat)*float64(in.timed.writes), float64(in.timed.writeOps))
	m["persist.checkpoints"] = float64(in.checkpoint)
	m["runtime.allocs_per_query"] = ratio(float64(in.mem.Mallocs), queries)
	m["runtime.bytes_per_query"] = ratio(float64(in.mem.TotalAlloc), queries)
	m["runtime.gc_cycles"] = float64(in.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(in.mem.PauseTotalNs) / 1e6
	m["bench.datagen_s"] = in.datagen.Seconds()
	m["bench.samples"] = float64(len(in.lat))
	m["bench.query_max_us"] = percentile(in.lat, 1)
	m["bench.round_spread_pct"] = 100 * ratio(percentile(p50s, 1)-percentile(p50s, 0), median(p50s))
	m["bench.dropped_requests"] = float64(in.dropped)

	declared := map[string]bool{}
	for _, d := range in.spec.metrics() {
		declared[d.Name] = true
	}
	for name, v := range m {
		if !declared[name] {
			in.fail("%s: metric %s is not declared in BENCHMARK.json", in.def.name, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0
		}
	}
	return workloadResult{
		Name: in.def.name, Correct: in.failed == 0, Attempted: in.attempted, Failed: in.failed,
		RequestDigest: in.digest, Layers: in.layers, DBTuples: in.dbTuples, Failures: in.notes, Metrics: m,
	}
}

// recover ends the read-write workload: an explicit checkpoint, a few more
// acknowledged batches so the log is not empty, close without a checkpoint,
// reopen from snapshot + log, and a check that every acknowledged operation
// survived.
func (in *instance) recover() {
	m, sys, cl := in.metrics, in.eng.sys, in.clients[0]
	t0 := time.Now()
	if err := sys.Checkpoint(in.ctx); err != nil {
		in.fail("checkpoint: %v", err)
	}
	m["persist.checkpoint_s"] = time.Since(t0).Seconds()
	m["persist.snapshot_bytes_per_tuple"] = ratio(float64(snapshotBytes(in.eng.dir)), float64(in.d.DB.Size()))
	for done := 0; done < 4; {
		o := cl.seq.next()
		if o.write == nil {
			continue
		}
		in.attempted++
		if _, err := in.do(cl, o); err != nil {
			in.fail("apply before recovery: %v", err)
		}
		done++
	}
	st := sys.PersistStats()
	m["persist.wal_bytes_per_op"] = ratio(float64(st.WALBytes), float64(st.WALRecords))
	if err := sys.Close(); err != nil {
		in.fail("close: %v", err)
	}

	t0 = time.Now()
	db := tpchShell(in.def.sf)
	warm, err := beas.OpenPersisted(in.ctx, db, in.eng.dir, beas.WithCheckpointEvery(checkEvery))
	if err != nil {
		in.fail("warm start: %v", err)
		m["persist.lost_acked_ops"] = float64(len(in.live) + len(in.gone))
		return
	}
	m["persist.warm_open_s"] = time.Since(t0).Seconds()
	in.eng.sys = warm
	if _, err := in.do(cl, op{it: in.pool[0]}); err != nil {
		in.fail("first answer after warm start: %v", err)
	}
	m["warm_start_s"] = time.Since(t0).Seconds()
	ws := warm.PersistStats()
	m["persist.replayed_records"] = float64(ws.Replayed)
	if !ws.WarmStart || ws.Replayed != st.WALRecords {
		in.fail("warm start replayed %d of %d logged records (warm=%v)", ws.Replayed, st.WALRecords, ws.WarmStart)
	}

	present := map[string]int{}
	for _, t := range db.MustRelation("lineitem").Tuples {
		present[t.Key()]++
	}
	lost := 0
	for k := range in.live {
		if present[k] != 1 {
			lost++
		}
	}
	for _, t := range in.gone {
		if present[t.Key()] != 0 {
			lost++
		}
	}
	if lost > 0 {
		in.fail("%d acknowledged operations missing after recovery", lost)
	}
	m["persist.lost_acked_ops"] = float64(lost)
}

// runSet measures the named workloads together: all of them resident, the
// slices of their timed phases interleaved so that a disturbance of the host
// falls on every workload alike, then the traced passes.
func runSet(ctx context.Context, cfg config, names []string) ([]workloadResult, error) {
	var insts []*instance
	defer func() {
		for _, in := range insts {
			in.removeDir()
		}
	}()
	for _, name := range names {
		def := findWorkload(cfg.scale, name)
		if def == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		in, err := newInstance(ctx, cfg, def, name == cfg.aux)
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
	}
	for r := 0; r < rounds; r++ {
		for _, in := range insts {
			in.round(cfg.timed / rounds)
		}
	}
	for _, in := range insts {
		if cfg.traced > 0 && !in.aux {
			if err := in.tracedPass(cfg.traced); err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", in.def.name, err)
			}
		}
	}
	results := make([]workloadResult, len(insts))
	byName := map[string]*workloadResult{}
	for i, in := range insts {
		results[i] = in.finish()
		byName[in.def.name] = &results[i]
	}
	// The paper's bounded-resource claim as a number: same budget, 8× the
	// data, CPU per query should stay where it was.
	if small, large := byName["lib_small_d"], byName["lib_large_d"]; small != nil && large != nil {
		large.Metrics["cost_base_small_us"] = small.Metrics["cpu_us_per_query"]
		large.Metrics["cost_base_large_us"] = large.Metrics["cpu_us_per_query"]
		large.Metrics["cost_vs_small_d"] = ratio(large.Metrics["cpu_us_per_query"], small.Metrics["cpu_us_per_query"])
	}
	return results, nil
}
