// End-to-end HTTP latency harness: the serving path of internal/serve
// measured over real sockets (httptest server + pooled client), across
// ladder shard counts. Where perf.go times Scheme.Answer in-process, this
// file times what a client of beasd actually observes — routing, JSON,
// the batch queue — and how it scales with the partition-parallel fetch
// path. `beasbench -http -out BENCH_3.json` emits the tracked report.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	beas "repro"
	"repro/internal/fixture"
	"repro/internal/serve"
)

// httpBenchQueries is the mixed traffic of the HTTP harness. The first
// query shape is fetch-heavy: its plan fetches the friend relation through
// the generic At ladder and then resolves one person-ladder X-value per
// distinct fid — thousands of distinct X lookups and fetched rows per
// query, which is exactly the fan-out the scatter-gather path spreads
// across shards. The others are cheap point-ish queries keeping the mix
// honest (they bound how much sharding can help overall).
func httpBenchQueries() []string {
	var qs []string
	for _, city := range fixture.Cities {
		qs = append(qs, fmt.Sprintf(
			"select f.fid from person as p, friend as f where p.city = '%s' and p.pid = f.fid", city))
	}
	for p0 := 0; p0 < 8; p0++ {
		qs = append(qs, fmt.Sprintf(
			"select h.address, h.price from poi as h, friend as f, person as p "+
				"where f.pid = %d and f.fid = p.pid and p.city = h.city and h.type = 'hotel' and h.price <= 95",
			p0))
	}
	qs = append(qs,
		"select h.city, count(h.address) as c from poi as h where h.type = 'bar' group by h.city")
	return qs
}

// httpBenchConfig sizes one harness pass.
type httpBenchConfig struct {
	persons, pois int
	queries       int
	batches       int
	batchSize     int
	workers       int
	alpha         float64
}

func defaultHTTPBenchConfig(smoke bool) httpBenchConfig {
	if smoke {
		return httpBenchConfig{persons: 100, pois: 200, queries: 32, batches: 4, batchSize: 4, workers: 2, alpha: 0.5}
	}
	return httpBenchConfig{persons: 1500, pois: 8000, queries: 1500, batches: 150, batchSize: 8, workers: 8, alpha: 0.5}
}

// RunHTTPPerf measures the HTTP serving path for each shard count. It
// returns one PerfRun whose latency entries are named http_query_shards_N /
// http_batch_shards_N.
func RunHTTPPerf(label string, smoke bool, shardCounts []int) (*PerfRun, error) {
	run := newPerfRun(label)
	cfg := defaultHTTPBenchConfig(smoke)
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
		if smoke {
			shardCounts = []int{1, 2}
		}
	}

	for _, n := range shardCounts {
		lat, err := measureHTTP(cfg, n, fmt.Sprintf("shards_%d", n))
		if err != nil {
			return nil, err
		}
		run.Latency = append(run.Latency, lat...)
	}
	return run, nil
}

// newPerfRun stamps the environment fields shared by every harness run.
func newPerfRun(label string) *PerfRun {
	base := RunPerfEnv()
	base.Label = label
	return base
}

// measureHTTP builds a fresh system with the given ladder shard count,
// serves it over a loopback HTTP server, and measures /query latency under
// concurrent mixed traffic plus /batch latency for fixed-size pipelined
// batches.
func measureHTTP(cfg httpBenchConfig, shards int, suffix string) ([]PerfLatency, error) {
	db := fixture.Example1(5, cfg.persons, cfg.pois)
	as, err := fixture.SchemaA0Sharded(db, shards)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		System:       beas.Open(db, as),
		DefaultAlpha: cfg.alpha,
		MaxRows:      100,
		Dataset:      "example1",
		DBSize:       db.Size(),
		Relations:    len(db.Names()),
		Shards:       shards,
		// The harness measures latency, not admission: a cap large enough
		// that weighted admission never rejects keeps every batch entry
		// executing, so the numbers stay comparable across PRs. Brownout is
		// off for the same reason: degraded α would change the work measured.
		BudgetCap: cfg.batches * cfg.batchSize * db.Size(),
		Brownout:  serve.BrownoutConfig{Mode: "off"},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lat, err := measureServeTraffic(cfg, ts.URL, "http", suffix)
	if err != nil {
		return nil, err
	}
	for i := range lat {
		lat[i].Shards = shards
	}
	return lat, nil
}

// measureServeTraffic drives the mixed workload against an already-running
// serve.Server at baseURL and folds the observed latencies into the two
// tracked entries <prefix>_query_<suffix> and <prefix>_batch_<suffix>. It
// is the shared measurement core of the HTTP and cluster harnesses — only
// how the server was assembled differs between them.
func measureServeTraffic(cfg httpBenchConfig, baseURL, prefix, suffix string) ([]PerfLatency, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.workers * 2}}
	defer client.CloseIdleConnections()

	queries := httpBenchQueries()
	post := func(path string, body []byte) error {
		resp, err := client.Post(baseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sink struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
			return fmt.Errorf("decode %s response: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, sink.Error)
		}
		return nil
	}

	queryBody := func(i int) []byte {
		b, _ := json.Marshal(serve.QueryRequest{SQL: queries[i%len(queries)], Alpha: cfg.alpha})
		return b
	}
	// Warm every distinct plan once so the measured distribution reflects
	// steady-state serving (plan cache hot), not first-touch chase work.
	for i := range queries {
		if err := post("/query", queryBody(i)); err != nil {
			return nil, fmt.Errorf("bench: %s warmup (%s): %w", prefix, suffix, err)
		}
	}

	qLat, err := fireConcurrent(cfg.queries, cfg.workers, func(i int) error {
		return post("/query", queryBody(i))
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s_query_%s: %w", prefix, suffix, err)
	}

	batchBody := func(i int) []byte {
		req := serve.BatchRequest{DeadlineMS: 60_000}
		for j := 0; j < cfg.batchSize; j++ {
			req.Queries = append(req.Queries, serve.QueryRequest{SQL: queries[(i*cfg.batchSize+j)%len(queries)], Alpha: cfg.alpha})
		}
		b, _ := json.Marshal(req)
		return b
	}
	bLat, err := fireConcurrent(cfg.batches, cfg.workers, func(i int) error {
		return post("/batch", batchBody(i))
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s_batch_%s: %w", prefix, suffix, err)
	}

	return []PerfLatency{
		summarizeLatency(prefix+"_query_"+suffix, qLat, cfg.workers),
		summarizeLatency(prefix+"_batch_"+suffix, bLat, cfg.workers),
	}, nil
}

// fireConcurrent runs n operations over `workers` goroutines, returning the
// per-operation latencies (indexed by operation).
func fireConcurrent(n, workers int, op func(i int) error) ([]time.Duration, error) {
	durs := make([]time.Duration, n)
	errs := make([]error, workers)
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= n {
			return -1
		}
		next++
		return int(next - 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				start := time.Now()
				if err := op(i); err != nil {
					errs[w] = err
					return
				}
				durs[i] = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return durs, nil
}

// summarizeLatency folds raw durations into the tracked percentile shape.
func summarizeLatency(name string, durs []time.Duration, workers int) PerfLatency {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	pct := func(p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		return float64(sorted[int(p*float64(len(sorted)-1))].Nanoseconds()) / 1e3
	}
	return PerfLatency{
		Name:       name,
		Queries:    len(durs),
		Workers:    workers,
		P50Micros:  pct(0.50),
		P99Micros:  pct(0.99),
		MeanMicros: float64(total.Nanoseconds()) / float64(max(1, len(sorted))) / 1e3,
	}
}
