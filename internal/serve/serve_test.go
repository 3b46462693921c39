package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/obs"

	beas "repro"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		System:       beas.Open(db, as),
		DefaultAlpha: 0.1,
		MaxRows:      50,
		Dataset:      "example1",
		DBSize:       db.Size(),
		Relations:    len(db.Names()),
		// Generous cap: these tests exercise serving concurrency, not
		// weighted admission (which has its own servers below).
		BudgetCap: 1000 * db.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postQuery(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, QueryResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleQuery(rec, req)
	var resp QueryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, rec.Body)
		}
	}
	return rec, resp
}

func postBatch(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleBatch(rec, req)
	var resp BatchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad batch JSON: %v\n%s", err, rec.Body)
		}
	}
	return rec, resp
}

func TestQueryEndpoint(t *testing.T) {
	s := testServer(t)
	rec, resp := postQuery(t, s,
		`{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "p.city" {
		t.Errorf("columns = %v", resp.Columns)
	}
	if resp.Eta <= 0 || resp.Eta > 1 {
		t.Errorf("eta = %g", resp.Eta)
	}
	if resp.Accessed > resp.Budget {
		t.Errorf("accessed %d > budget %d", resp.Accessed, resp.Budget)
	}
	if resp.Alpha != 0.5 {
		t.Errorf("alpha = %g", resp.Alpha)
	}

	// Same query again: must be a plan-cache hit.
	_, resp = postQuery(t, s,
		`{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	if !resp.CacheHit {
		t.Error("repeat query missed the plan cache")
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer(t)
	// Every case counts as one failed query, on whichever surface.
	cases := []struct {
		path string
		body string
		code int
	}{
		{"/query", `not json`, http.StatusBadRequest},
		{"/query", `{}`, http.StatusBadRequest},
		{"/query", `{"sql": "select x from", "alpha": 0.1}`, http.StatusUnprocessableEntity},
		{"/query", `{"sql": "select p.city from person as p", "alpha": 7}`, http.StatusBadRequest},
		{"/query", `{"sql": "select p.city from person as p", "alpha": -0.2}`, http.StatusBadRequest},
		{"/batch", `not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Errorf("%s %q: status %d, want %d (%s)", c.path, c.body, rec.Code, c.code, rec.Body)
		}
	}
	// GET is rejected.
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}
	if got := s.failures.Value(); got != uint64(len(cases)) {
		t.Errorf("failures = %d, want %d", got, len(cases))
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["size"].(float64) <= 0 {
		t.Errorf("health = %v", health)
	}

	postQuery(t, s, `{"sql": "select p.city from person as p"}`)
	postQuery(t, s, `{"sql": "select p.city from person as p"}`)

	stats := statsBody(t, s)
	if got := stat(t, stats, "beas_queries_total"); got != 2 {
		t.Errorf("queries = %v", got)
	}
	if got := stat(t, stats, "beas_plancache_hits_total"); got < 1 {
		t.Errorf("plan cache hits = %v", got)
	}
	if got := stat(t, stats, "beas_batch_queue_cap"); got != 256 {
		t.Errorf("queue cap = %v", got)
	}
}

// TestBatchEndpoint pipelines a mixed batch — valid queries, a parse
// failure — and checks per-entry outcomes arrive in request order.
func TestBatchEndpoint(t *testing.T) {
	s := testServer(t)
	rec, resp := postBatch(t, s, `{"queries": [
		{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5},
		{"sql": "select broken from", "alpha": 0.1},
		{"sql": "select h.address from poi as h where h.type = 'hotel'", "alpha": 0.3}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Columns) != 1 {
		t.Errorf("entry 0 = %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Error("entry 1: parse failure not reported")
	}
	if resp.Results[2].Error != "" || resp.Results[2].Alpha != 0.3 {
		t.Errorf("entry 2 = %+v", resp.Results[2])
	}
	if resp.Rejected != 0 {
		t.Errorf("rejected = %d", resp.Rejected)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"queries": []}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, _ := postBatch(t, s, c.body)
		if rec.Code != c.code {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, rec.Code, c.code, rec.Body)
		}
	}
	// Oversized batches are rejected outright.
	var sb strings.Builder
	sb.WriteString(`{"queries": [`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"sql": "select p.city from person as p"}`)
	}
	sb.WriteString(`]}`)
	rec, _ := postBatch(t, s, sb.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", rec.Code)
	}
}

// TestBatchBackpressure drives jobs into a server whose workers never run:
// once the bounded queue is full, further entries must be rejected
// immediately rather than buffered.
func TestBatchBackpressure(t *testing.T) {
	db := fixture.Example1(11, 40, 30)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	// Construct directly (no New): a queue of 2 with no workers draining,
	// so admission is deterministic.
	s := &Server{
		cfg:     Config{System: beas.Open(db, as), QueueDepth: 2, MaxBatch: 16}.withDefaults(),
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	s.brown, _ = newBrownoutController(BrownoutConfig{Mode: "off"})
	s.queue = make(chan *job, 2)
	s.reg = obs.NewRegistry()
	s.registerMetrics()

	var wg sync.WaitGroup
	entries := make([]BatchEntry, 4)
	rejected := 0
	for i := range entries {
		wg.Add(1)
		j := &job{req: QueryRequest{SQL: "select p.city from person as p"}, entry: &entries[i], wg: &wg}
		select {
		case s.queue <- j:
		default:
			entries[i].Rejected = true
			rejected++
			wg.Done()
		}
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2 (queue depth 2, 4 jobs)", rejected)
	}
	// Drain the two admitted jobs manually (acting as the worker).
	for i := 0; i < 2; i++ {
		s.runJob(<-s.queue)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if entries[i].Error != "" {
			t.Errorf("admitted entry %d failed: %s", i, entries[i].Error)
		}
	}
}

// TestBatchDeadline: a job whose deadline passed while queued must be
// failed without executing.
func TestBatchDeadline(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	wg.Add(1)
	entry := &BatchEntry{}
	j := &job{
		req:      QueryRequest{SQL: "select p.city from person as p"},
		deadline: time.Now().Add(-time.Millisecond),
		entry:    entry,
		wg:       &wg,
	}
	s.runJob(j)
	wg.Wait()
	if !entry.TimedOut || entry.Error == "" {
		t.Fatalf("expired job not timed out: %+v", entry)
	}
	if s.expired.Value() != 1 {
		t.Errorf("expired = %d", s.expired.Value())
	}
}

// TestConcurrentRequests drives both handlers from many goroutines — the
// serving-layer face of the System concurrency guarantee (run with -race).
func TestConcurrentRequests(t *testing.T) {
	s := testServer(t)
	bodies := []string{
		`{"sql": "select p.city from person as p where p.pid = 1", "alpha": 0.3}`,
		`{"sql": "select h.address from poi as h where h.type = 'hotel'", "alpha": 0.2}`,
		`{"sql": "select h.city, count(h.address) as c from poi as h group by h.city", "alpha": 0.4}`,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					req := httptest.NewRequest(http.MethodPost, "/query",
						strings.NewReader(bodies[(g+i)%len(bodies)]))
					rec := httptest.NewRecorder()
					s.handleQuery(rec, req)
					if rec.Code != http.StatusOK {
						errs <- rec.Body.String()
						return
					}
					continue
				}
				body := fmt.Sprintf(`{"queries": [%s, %s]}`,
					bodies[(g+i)%len(bodies)], bodies[(g+i+1)%len(bodies)])
				req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
				rec := httptest.NewRecorder()
				s.handleBatch(rec, req)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
				var resp BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err.Error()
					return
				}
				for _, e := range resp.Results {
					if e.Error != "" {
						errs <- e.Error
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.cfg.System.PlanCacheStats().Hits == 0 {
		t.Error("no cache hits under concurrent repeated traffic")
	}
}

// TestWeightedAdmission drives the budget-weighted admission gate directly:
// one job fills the cap, further jobs are refused until the weight is
// released, and a single over-cap job is still admitted when nothing else
// is in flight.
func TestWeightedAdmission(t *testing.T) {
	db := fixture.Example1(11, 40, 30)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		cfg: Config{
			System: beas.Open(db, as), DBSize: db.Size(), BudgetCap: db.Size(),
		}.withDefaults(),
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	s.brown, _ = newBrownoutController(BrownoutConfig{Mode: "off"})
	s.reg = obs.NewRegistry()
	s.registerMetrics()
	full := s.jobWeight(1.0)
	if full != int64(db.Size()) {
		t.Fatalf("jobWeight(1.0) = %d, want |D| = %d", full, db.Size())
	}
	if w := s.jobWeight(0.01); w < 1 {
		t.Fatalf("jobWeight(0.01) = %d, want >= 1", w)
	}
	if !s.admit(full) {
		t.Fatal("first job refused with an empty pool")
	}
	if s.admit(1) {
		t.Fatal("cap reached but another job was admitted")
	}
	s.inflight.Add(-full)
	if !s.admit(2 * full) {
		t.Fatal("over-cap job refused despite empty pool (would be permanently unservable)")
	}
	if s.admit(1) {
		t.Fatal("admission open while an over-cap job is in flight")
	}
	s.inflight.Add(-2 * full)
	if got := s.inflight.Value(); got != 0 {
		t.Fatalf("in-flight weight leaked: %d", got)
	}
}

// TestBatchWeightedAdmissionEndToEnd: with a cap of one full-budget job and
// a single worker, a batch of three alpha=1 queries admits the first and
// rejects the rest while it is in flight — a giant batch cannot monopolise
// the pool. The first job is held in flight (core.ExecPanicHook blocks its
// leaf) until both others have been rejected, so the worker cannot finish
// it and free the cap before they arrive.
func TestBatchWeightedAdmissionEndToEnd(t *testing.T) {
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		System:    beas.Open(db, as),
		DBSize:    db.Size(),
		BudgetCap: db.Size(), // exactly one alpha=1 job
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	release := make(chan struct{})
	prev := core.ExecPanicHook
	core.ExecPanicHook = func() { <-release }
	t.Cleanup(func() { core.ExecPanicHook = prev })
	go func() {
		defer close(release)
		for deadline := time.Now().Add(10 * time.Second); s.rejected.Value() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("only %d of the 2 later jobs rejected within 10s", s.rejected.Value())
				return
			}
		}
	}()
	rec, resp := postBatch(t, s, `{"queries": [
		{"sql": "select p.city from person as p", "alpha": 1.0},
		{"sql": "select p.city from person as p", "alpha": 1.0},
		{"sql": "select p.city from person as p", "alpha": 1.0}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Results[0].Rejected || resp.Results[0].Error != "" {
		t.Fatalf("first entry should run: %+v", resp.Results[0])
	}
	if resp.Rejected != 2 || !resp.Results[1].Rejected || !resp.Results[2].Rejected {
		t.Fatalf("rejected = %d, entries = %+v", resp.Rejected, resp.Results[1:])
	}
	if !strings.Contains(resp.Results[1].Error, "budget cap") {
		t.Errorf("rejection reason = %q", resp.Results[1].Error)
	}
	if got := s.inflight.Value(); got != 0 {
		t.Errorf("in-flight weight after batch = %d, want 0", got)
	}
	// The cap and the (now zero) in-flight weight are visible on /stats.
	stats := statsBody(t, s)
	if stat(t, stats, "beas_batch_budget_cap") != float64(db.Size()) || stat(t, stats, "beas_batch_inflight_budget") != 0 {
		t.Errorf("budget cap %v, in-flight %v", stats["beas_batch_budget_cap"], stats["beas_batch_inflight_budget"])
	}
}

// TestRunJobCancelledCounted: a job whose parent context is cancelled (the
// batch client disconnected) is aborted and counted as cancelled, not
// expired.
func TestRunJobCancelledCounted(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	entry := &BatchEntry{}
	s.runJob(&job{
		req:      QueryRequest{SQL: "select p.city from person as p"},
		ctx:      ctx,
		deadline: time.Now().Add(time.Hour),
		entry:    entry,
		wg:       &wg,
	})
	wg.Wait()
	if !entry.Cancelled || entry.TimedOut {
		t.Fatalf("entry = %+v, want cancelled (not timed out)", entry)
	}
	if s.cancelled.Value() != 1 || s.expired.Value() != 0 {
		t.Errorf("cancelled = %d, expired = %d", s.cancelled.Value(), s.expired.Value())
	}
}

// TestRunJobMidFlightDeadline: a job whose execution context reports
// deadline expiry during execution (rather than while queued) is abandoned
// mid-flight and recorded as expired with the mid-execution error — the old
// serving layer burned the worker to completion instead. The expiry is
// injected deterministically through an already-expired parent context
// while the job's own admission deadline is still in the future, so the
// pre-execution time check passes and the executor's cooperative
// cancellation is what abandons the work (wall-clock timers are not
// reliable on a starved single-CPU runner; the core-level countdown test
// pins the promptness bound).
func TestRunJobMidFlightDeadline(t *testing.T) {
	s := testServer(t)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	entry := &BatchEntry{}
	s.runJob(&job{
		req:      QueryRequest{SQL: "select p.city from person as p", Alpha: 0.5},
		ctx:      expired,
		deadline: time.Now().Add(time.Hour),
		entry:    entry,
		wg:       &wg,
	})
	wg.Wait()
	if !entry.TimedOut || entry.Cancelled {
		t.Fatalf("entry = %+v, want timed out mid-execution", entry)
	}
	if entry.Error != "deadline exceeded mid-execution" {
		t.Fatalf("error = %q, want mid-execution expiry (pre-execution expiry means the worker never started)", entry.Error)
	}
	if s.expired.Value() != 1 || s.cancelled.Value() != 0 {
		t.Errorf("expired = %d, cancelled = %d", s.expired.Value(), s.cancelled.Value())
	}
}

// TestStreamEndpoint: /stream emits NDJSON — a columns line, one line per
// row, a final summary line consistent with /query on the same request.
func TestStreamEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"sql": "select h.address from poi as h where h.type = 'hotel'", "alpha": 0.5, "tag": "ndjson"}`
	_, qresp := postQuery(t, s, body)

	req := httptest.NewRequest(http.MethodPost, "/stream", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleStream(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	type line struct {
		Columns []string       `json:"columns"`
		Row     []string       `json:"row"`
		Summary *StreamSummary `json:"summary"`
		Error   string         `json:"error"`
	}
	var rows int
	var summary *StreamSummary
	dec := json.NewDecoder(strings.NewReader(rec.Body.String()))
	first := true
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		switch {
		case first:
			if len(l.Columns) != 1 || l.Columns[0] != "h.address" {
				t.Fatalf("first line columns = %v", l.Columns)
			}
			first = false
		case l.Row != nil:
			rows++
		case l.Summary != nil:
			summary = l.Summary
		case l.Error != "":
			t.Fatalf("stream error line: %s", l.Error)
		}
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if summary.Rows != rows {
		t.Errorf("summary rows %d != streamed rows %d", summary.Rows, rows)
	}
	if rows != qresp.Rows {
		t.Errorf("streamed %d rows, /query reports %d", rows, qresp.Rows)
	}
	if summary.Eta != qresp.Eta || summary.Budget != qresp.Budget {
		t.Errorf("summary %+v vs query %+v", summary, qresp)
	}
	// Both come from one execute: the summary is /query's metadata, up to
	// the timings and the plan cache serving the second call.
	got := *summary
	got.CacheHit, got.PlanGenMS, got.ServedMS = qresp.CacheHit, qresp.PlanGenMS, qresp.ServedMS
	if got != qresp.AnswerMeta {
		t.Errorf("summary %+v != /query metadata %+v", got, qresp.AnswerMeta)
	}
	// The tagged call shows up in /stats.
	if got := stat(t, statsBody(t, s), "beas_tag_queries", "ndjson"); got != 2 {
		t.Errorf("tagged queries = %v, want 2 (the /query and the /stream call)", got)
	}
}

// TestStreamEndpointErrors: invalid requests fail before any NDJSON is
// written, with ordinary HTTP error codes.
func TestStreamEndpointErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"sql": "select x from", "alpha": 0.1}`, http.StatusUnprocessableEntity},
		{`{"sql": "select p.city from person as p", "alpha": 9}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/stream", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		s.handleStream(rec, req)
		if rec.Code != c.code {
			t.Errorf("body %q: status %d, want %d", c.body, rec.Code, c.code)
		}
	}
	rec := httptest.NewRecorder()
	s.handleStream(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}
}

// TestStreamFailureStatus: an execution failure answers the same HTTP
// status on /stream as on /query — a past deadline (504), a contained
// evaluator panic (500, counted as an internal error) and a killed cluster
// peer (502) — because both endpoints run one execute.
func TestStreamFailureStatus(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	cases := []struct {
		name   string
		server func(t *testing.T) *Server
		ctx    context.Context
		bodies []string
		want   int
	}{
		{"past deadline", testServer, expired,
			[]string{`{"sql": "select p.city from person as p", "alpha": 0.5}`}, http.StatusGatewayTimeout},
		{"evaluator panic", func(t *testing.T) *Server {
			prev := core.ExecPanicHook
			core.ExecPanicHook = func() { panic("forced evaluator panic") }
			t.Cleanup(func() { core.ExecPanicHook = prev })
			return testServer(t)
		}, context.Background(),
			[]string{`{"sql": "select p.city from person as p", "alpha": 0.5}`}, http.StatusInternalServerError},
		{"killed peer", func(t *testing.T) *Server {
			s, peer := clusterServer(t)
			peer.Close()
			return s
		}, context.Background(), clusterQueries, http.StatusBadGateway},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.server(t)
			h := s.Handler()
			status := func(path, body string) int {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(c.ctx))
				return rec.Code
			}
			seen := false
			for _, body := range c.bodies {
				q := status("/query", body)
				internal := s.internalErrors.Value()
				if st := status("/stream", body); st != q {
					t.Errorf("%s: /stream answered %d, /query %d", body, st, q)
				}
				if q == http.StatusInternalServerError && s.internalErrors.Value() != internal+1 {
					t.Errorf("%s: /stream panic moved internal errors %d -> %d", body, internal, s.internalErrors.Value())
				}
				seen = seen || q == c.want
			}
			if !seen {
				t.Errorf("no request answered %d", c.want)
			}
		})
	}
}
