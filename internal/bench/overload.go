// Overload harness: goodput, accuracy and latency of the serving layer at
// saturation, per brownout mode. The same offered load — concurrent /batch
// traffic whose summed access budgets far exceed the server's in-flight cap,
// plus a stream of /query probes — is fired at a deliberately small server
// once per mode:
//
//	off    reject-only baseline: queue and budget backpressure, no degradation
//	auto   the adaptive controller stepping levels under live pressure
//	1, 2   pinned shrink levels (deterministic degraded service)
//
// The brownout thesis is measurable here: a browned-out server weighs batch
// admission by the DEGRADED α, so the same budget cap admits 4×/16× more
// jobs — each cheaper, each still η-certified — and goodput (completed
// answers per second) rises instead of collapsing into rejections.
// `beasbench overload` prints one line per mode.
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

// Overload is the result of one saturation pass at one brownout mode.
type Overload struct {
	// Mode is the brownout controller mode the pass ran under.
	Mode string
	// Offered counts every query the load fired (batch entries + probes).
	Offered int
	// Served counts completed answers (the goodput numerator); Rejected and
	// Shed are the two refusal paths — admission backpressure per entry, and
	// the server's count of whole HTTP requests refused by brownout
	// load-shedding — while Failed is everything else (deadlines, errors).
	Served   int
	Rejected int
	Shed     int64
	Failed   int
	// Degraded counts answers served below their requested α — still
	// η-certified, just cheaper.
	Degraded int
	// InternalErrors must be 0: contained panics during the pass.
	InternalErrors int64
	// EtaViolations must be 0: served answers whose certified η left [0, 1].
	EtaViolations int
	GoodputQPS    float64
	// MeanEta averages the certified bound over served answers — the
	// accuracy price of the mode's goodput.
	MeanEta  float64
	P50, P99 time.Duration
	Elapsed  time.Duration
	// FinalLevel is the brownout level the controller ended the pass at;
	// LevelShifts counts its level changes during the measured window (0 for
	// the pinned modes — stability of the adaptive controller is itself a
	// measured number).
	FinalLevel  int
	LevelShifts int64
}

// overloadConfig sizes one harness pass.
type overloadConfig struct {
	persons, pois int
	clients       int // concurrent batch-posting clients
	batches       int // batches per client
	batchSize     int
}

// Every query asks for overloadAlpha; brownout may shrink it to no less
// than overloadMinAlpha.
const overloadAlpha, overloadMinAlpha = 0.5, 0.02

// RunOverload runs the saturation pass once per brownout mode, in the order
// off, auto, 1, 2. A pass with a contained panic or an η outside [0, 1] is
// an error, returned with the results measured so far.
func RunOverload() ([]Overload, error) {
	return runOverload(overloadConfig{persons: 800, pois: 3000, clients: 8, batches: 15, batchSize: 16})
}

func runOverload(cfg overloadConfig) ([]Overload, error) {
	var out []Overload
	for _, mode := range []string{"off", "auto", "1", "2"} {
		res, err := measureOverload(cfg, mode)
		if err != nil {
			return out, fmt.Errorf("bench: overload mode %s: %w", mode, err)
		}
		out = append(out, *res)
		if res.InternalErrors > 0 || res.EtaViolations > 0 {
			return out, fmt.Errorf("bench: overload mode %s: %d internal errors, %d eta violations (want 0)",
				mode, res.InternalErrors, res.EtaViolations)
		}
	}
	return out, nil
}

// overloadQueries is the mixed traffic of the campaign. The first query
// shape is fetch-heavy: its plan fetches the friend relation through the
// generic At ladder and then resolves one person-ladder X-value per distinct
// fid. The others are cheap point-ish queries keeping the mix honest.
func overloadQueries() []string {
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

// measureOverload fires the offered load at a small server in one brownout
// mode and tallies the outcome of every query.
func measureOverload(cfg overloadConfig, mode string) (*Overload, error) {
	db := fixture.Example1(5, cfg.persons, cfg.pois)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		System:       beas.Open(db, as),
		DefaultAlpha: overloadAlpha,
		MaxRows:      20,
		Dataset:      "example1",
		DBSize:       db.Size(),
		Relations:    len(db.Names()),
		QueueDepth:   4 * cfg.batchSize,
		Workers:      2,
		MaxBatch:     cfg.batchSize,
		// The saturation knob: room for ~2 full-α jobs in flight, against an
		// offered load of hundreds. The reject-only baseline must refuse most
		// of it; brownout admits more by shrinking each job's budget.
		BudgetCap: db.Size(),
		Brownout: serve.BrownoutConfig{
			Mode:     mode,
			MinAlpha: overloadMinAlpha,
			// A short cooldown so the auto controller can traverse levels
			// within a bench pass, and a conservative step-down threshold so
			// the saw-tooth of a closed-loop client (queues drain during the
			// client's own round trips) does not flap the level.
			StepDown:      0.25,
			Cooldown:      100 * time.Millisecond,
			LatencyTarget: 250 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.clients}}
	defer client.CloseIdleConnections()

	queries := overloadQueries()
	batchBody := func(client, batch int) []byte {
		reqs := make([]serve.QueryRequest, cfg.batchSize)
		for i := range reqs {
			reqs[i] = serve.QueryRequest{SQL: queries[(client*31+batch*7+i)%len(queries)], Alpha: overloadAlpha}
		}
		b, _ := json.Marshal(serve.BatchRequest{Queries: reqs, DeadlineMS: 30000})
		return b
	}
	queryBody := func(i int) []byte {
		b, _ := json.Marshal(serve.QueryRequest{SQL: queries[i%len(queries)], Alpha: overloadAlpha})
		return b
	}

	res := &Overload{Mode: mode}
	var mu sync.Mutex // guards res tallies and lats/etas below
	var lats []time.Duration
	var etaSum float64

	tally := func(entries []serve.BatchEntry, shedded bool, n int) {
		mu.Lock()
		defer mu.Unlock()
		res.Offered += n
		if shedded {
			return // counted via the server's shed counter afterwards
		}
		for _, e := range entries {
			switch {
			case e.Rejected:
				res.Rejected++
			case e.Error != "":
				res.Failed++
			default:
				res.Served++
				etaSum += e.Eta
				if e.Eta < 0 || e.Eta > 1 {
					res.EtaViolations++
				}
				if e.Degraded {
					res.Degraded++
				}
				lats = append(lats, time.Duration(e.ServedMS*float64(time.Millisecond)))
			}
		}
	}

	// Warmup (untallied, all modes): saturate until the adaptive controller
	// reaches its steady level, so the measured window compares steady-state
	// service instead of each mode's ramp.
	warmup := cfg.batches/3 + 1
	var warmWG sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		warmWG.Add(1)
		go func(c int) {
			defer warmWG.Done()
			for b := 0; b < warmup; b++ {
				resp, err := client.Post(ts.URL+"/batch", "application/json", bytes.NewReader(batchBody(c+100, b)))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(c)
	}
	warmWG.Wait()
	// Counter baseline after warmup, so the tallies below cover only the
	// measured window.
	base, err := fetchStats(client, ts.URL)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < cfg.batches; b++ {
				resp, err := client.Post(ts.URL+"/batch", "application/json", bytes.NewReader(batchBody(c, b)))
				if err != nil {
					errs[c] = err
					return
				}
				var br serve.BatchResponse
				dec := json.NewDecoder(resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					if err := dec.Decode(&br); err != nil {
						resp.Body.Close()
						errs[c] = fmt.Errorf("decode batch: %w", err)
						return
					}
					tally(br.Results, false, cfg.batchSize)
				case http.StatusServiceUnavailable:
					// Brownout shed the whole batch; the load keeps coming.
					tally(nil, true, cfg.batchSize)
				default:
					resp.Body.Close()
					errs[c] = fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				resp.Body.Close()

				// Interactive probes riding alongside the batch load: /query
				// survives until BrownoutShedAll, so the deeper pinned levels
				// still show their (deeper-degraded) query goodput.
				for p := 0; p < 2; p++ {
					qresp, err := client.Post(ts.URL+"/query", "application/json",
						bytes.NewReader(queryBody(c*131+b*17+p)))
					if err != nil {
						errs[c] = err
						return
					}
					var qr serve.QueryResponse
					switch qresp.StatusCode {
					case http.StatusOK:
						if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
							qresp.Body.Close()
							errs[c] = fmt.Errorf("decode query: %w", err)
							return
						}
						tally([]serve.BatchEntry{{QueryResponse: qr}}, false, 1)
					case http.StatusServiceUnavailable:
						tally(nil, true, 1)
					default:
						tally([]serve.BatchEntry{{Error: fmt.Sprintf("status %d", qresp.StatusCode)}}, false, 1)
					}
					qresp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Pull the server-side counters the client cannot see.
	stats, err := fetchStats(client, ts.URL)
	if err != nil {
		return nil, err
	}
	res.Shed = int64(stats["beas_shed_total"] - base["beas_shed_total"])
	res.InternalErrors = int64(stats["beas_internal_errors_total"] - base["beas_internal_errors_total"])
	res.FinalLevel = int(stats["beas_brownout_level"])
	res.LevelShifts = int64(stats["beas_brownout_level_shifts"] - base["beas_brownout_level_shifts"])

	res.Elapsed = elapsed
	if elapsed > 0 {
		res.GoodputQPS = float64(res.Served) / elapsed.Seconds()
	}
	if res.Served > 0 {
		res.MeanEta = etaSum / float64(res.Served)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		res.P50, res.P99 = pct(0.50), pct(0.99)
	}
	return res, nil
}

// fetchStats decodes the unlabelled series of GET /stats (the metrics
// registry, keyed by series name) that the harness reads back.
func fetchStats(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	out := make(map[string]float64, len(body))
	for name, v := range body {
		if n, ok := v.(float64); ok {
			out[name] = n
		}
	}
	return out, nil
}
