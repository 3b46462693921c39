package serve

// Observability regression tests for the serving layer:
//
//   - TestMetricsExposition scrapes /metrics from a live server and
//     validates the full text exposition format with a strict in-test
//     parser (CI runs this as the exposition-format gate).
//   - TestStatsMetricsAgree replays traffic and asserts /stats and
//     /metrics report the same samples and nothing else — the two
//     endpoints are two renderings of one registry walk.
//   - TestAuditRecordsMatchAnswers replays a corpus with auditing on and
//     checks one NDJSON record per request whose budget_spent/eta match
//     the answer the client received.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/obs"

	beas "repro"
)

// --- exposition parser -----------------------------------------------------

type expoFamily struct {
	typ     string
	samples map[string]float64 // full sample key (name + labels) -> value
}

var expoNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func expoValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseExposition validates body against the Prometheus text exposition
// format (version 0.0.4) and returns the families: every family has one
// HELP then one TYPE line before its samples, sample names match their
// family (with _bucket/_sum/_count for histograms), values parse, and
// histogram buckets are cumulative with le="+Inf" equal to _count.
func parseExposition(t *testing.T, body string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	cur := ""
	for ln, line := range strings.Split(body, "\n") {
		ln++
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !expoNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %s", ln, line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("line %d: duplicate family %s", ln, name)
			}
			fams[name] = &expoFamily{samples: map[string]float64{}}
			cur = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %s", ln, line)
			}
			name, typ := fields[0], fields[1]
			if name != cur || fams[name] == nil {
				t.Fatalf("line %d: TYPE %s does not follow its HELP", ln, name)
			}
			if fams[name].typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: invalid type %q", ln, typ)
			}
			fams[name].typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		// Sample line: name[{label="value"}] value
		key, valStr := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i || j+1 >= len(line) || line[j+1] != ' ' {
				t.Fatalf("line %d: malformed labels: %s", ln, line)
			}
			key, valStr = line[:j+1], line[j+2:]
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value: %s", ln, line)
			}
			key, valStr = line[:sp], line[sp+1:]
		}
		val, err := expoValue(valStr)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		if !expoNameRe.MatchString(name) {
			t.Fatalf("line %d: invalid metric name %q", ln, name)
		}
		f := fams[cur]
		if cur == "" || f == nil || f.typ == "" {
			t.Fatalf("line %d: sample before a HELP/TYPE header: %s", ln, line)
		}
		if f.typ == "histogram" {
			if name != cur+"_bucket" && name != cur+"_sum" && name != cur+"_count" {
				t.Fatalf("line %d: sample %s not of histogram family %s", ln, name, cur)
			}
		} else if name != cur {
			t.Fatalf("line %d: sample %s outside its family %s", ln, name, cur)
		}
		if _, dup := f.samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", ln, key)
		}
		f.samples[key] = val
	}

	leRe := regexp.MustCompile(`le="([^"]+)"`)
	for name, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s has no samples", name)
		}
		if f.typ != "histogram" {
			continue
		}
		// Histogram invariants: buckets cumulative in le order, a +Inf
		// bucket present and equal to _count, _sum present.
		type bkt struct {
			le string
			n  float64
		}
		var bkts []bkt
		for key, v := range f.samples {
			if strings.HasPrefix(key, name+"_bucket") {
				m := leRe.FindStringSubmatch(key)
				if m == nil {
					t.Fatalf("histogram bucket without le label: %s", key)
				}
				bkts = append(bkts, bkt{m[1], v})
			}
		}
		for i := range bkts {
			for j := i + 1; j < len(bkts); j++ {
				li, _ := expoValue(bkts[i].le)
				lj, _ := expoValue(bkts[j].le)
				if lj < li {
					bkts[i], bkts[j] = bkts[j], bkts[i]
				}
			}
		}
		if len(bkts) == 0 || bkts[len(bkts)-1].le != "+Inf" {
			t.Fatalf("histogram %s lacks a +Inf bucket", name)
		}
		for i := 1; i < len(bkts); i++ {
			if bkts[i].n < bkts[i-1].n {
				t.Fatalf("histogram %s buckets not cumulative at le=%s", name, bkts[i].le)
			}
		}
		count, ok := f.samples[name+"_count"]
		if !ok {
			t.Fatalf("histogram %s lacks _count", name)
		}
		if _, ok := f.samples[name+"_sum"]; !ok {
			t.Fatalf("histogram %s lacks _sum", name)
		}
		if bkts[len(bkts)-1].n != count {
			t.Fatalf("histogram %s: +Inf bucket %v != count %v", name, bkts[len(bkts)-1].n, count)
		}
	}
	return fams
}

// --- tests -----------------------------------------------------------------

// TestMetricsExposition is the exposition-format gate: a live server's
// /metrics output must parse cleanly under the strict parser above and
// contain the core serving families with sane values.
func TestMetricsExposition(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Move the instruments off zero first: successes, a failure, a stream.
	postQuery(t, s, `{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	postQuery(t, s, `{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	postQuery(t, s, `{"sql": "select broken from", "alpha": 0.1}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, string(body))

	checks := map[string]string{
		"beas_queries_total":          "counter",
		"beas_query_failures_total":   "counter",
		"beas_query_duration_seconds": "histogram",
		"beas_batch_inflight_budget":  "gauge",
		"beas_brownout_level":         "gauge",
		"beas_uptime_seconds":         "gauge",
		"beas_plancache_hits_total":   "counter",
	}
	for name, typ := range checks {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.typ != typ {
			t.Errorf("family %s has type %s, want %s", name, f.typ, typ)
		}
	}
	if got := fams["beas_queries_total"].samples["beas_queries_total"]; got != 2 {
		t.Errorf("beas_queries_total = %v, want 2", got)
	}
	if got := fams["beas_query_failures_total"].samples["beas_query_failures_total"]; got != 1 {
		t.Errorf("beas_query_failures_total = %v, want 1", got)
	}
	if got := fams["beas_query_duration_seconds"].samples["beas_query_duration_seconds_count"]; got != 2 {
		t.Errorf("duration histogram count = %v, want 2", got)
	}
}

// metricPaths maps every sample of a parsed /metrics scrape to its place in
// the /stats JSON: an unlabelled sample to its family name, a labelled one
// to (family, label value) and a histogram's samples to (family, "count"),
// (family, "sum") and (family, "buckets", le).
func metricPaths(fams map[string]*expoFamily) map[string]float64 {
	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	le := regexp.MustCompile(`le="([^"]+)"`)
	out := map[string]float64{}
	for name, f := range fams {
		for key, v := range f.samples {
			path := key
			switch {
			case f.typ == "histogram" && key == name+"_count":
				path = name + "/count"
			case f.typ == "histogram" && key == name+"_sum":
				path = name + "/sum"
			case f.typ == "histogram":
				path = name + "/buckets/" + le.FindStringSubmatch(key)[1]
			case strings.Contains(key, "{"):
				_, lbl, _ := strings.Cut(key, `="`)
				path = name + "/" + unescape.Replace(strings.TrimSuffix(lbl, `"}`))
			}
			out[path] = v
		}
	}
	return out
}

// statsPaths flattens a /stats body the same way: one path per number.
func statsPaths(prefix string, v any, out map[string]float64) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			p := k
			if prefix != "" {
				p = prefix + "/" + k
			}
			statsPaths(p, sub, out)
		}
	case float64:
		out[prefix] = v
	default:
		out[prefix] = math.NaN() // null (a non-finite gauge) or a stray non-number
	}
}

// TestStatsMetricsAgree replays mixed traffic on a persisted server
// (queries, a failure, a tagged stream, a batch) and asserts /stats is the
// registry: every /metrics sample has an equal /stats value and /stats
// holds nothing else. Values that move between scrapes (uptime, decaying
// pressure) must lie between two /metrics scrapes taken around /stats.
func TestStatsMetricsAgree(t *testing.T) {
	s, _ := persistedServer(t)

	postQuery(t, s, `{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	postQuery(t, s, `{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`)
	postQuery(t, s, `{"sql": "select h.address from poi as h where h.type = 'hotel'", "alpha": 0.3}`)
	postQuery(t, s, `{"sql": "select broken from", "alpha": 0.1}`) // failure
	postBatch(t, s, `{"queries": [
		{"sql": "select p.city from person as p where p.pid = 5", "alpha": 0.2},
		{"sql": "select also broken", "alpha": 0.2}
	]}`)
	req := httptest.NewRequest(http.MethodPost, "/stream",
		strings.NewReader(`{"sql": "select h.address from poi as h where h.type = 'hotel'", "alpha": 0.5, "tag": "ndjson"}`))
	recStream := httptest.NewRecorder()
	s.handleStream(recStream, req)
	if recStream.Code != http.StatusOK {
		t.Fatalf("stream: %d: %s", recStream.Code, recStream.Body)
	}

	scrape := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics: %d", rec.Code)
		}
		return metricPaths(parseExposition(t, rec.Body.String()))
	}
	before := scrape()
	stats := map[string]float64{}
	statsPaths("", statsBody(t, s), stats)
	after := scrape()

	for path, lo := range before {
		hi := after[path]
		if lo > hi {
			lo, hi = hi, lo
		}
		got, ok := stats[path]
		switch {
		case !ok:
			t.Errorf("/metrics %s = %v is missing from /stats", path, hi)
		case math.IsNaN(lo) && math.IsNaN(got):
		case !(lo <= got && got <= hi):
			t.Errorf("%s: /stats %v, /metrics %v..%v", path, got, lo, hi)
		}
	}
	for path, v := range stats {
		if _, ok := before[path]; !ok {
			t.Errorf("/stats %s = %v has no /metrics sample", path, v)
		}
	}
	// The traffic actually moved the needles (the agreement is not 0 == 0).
	for _, path := range []string{
		"beas_queries_total", "beas_query_failures_total", "beas_streams_total",
		"beas_batch_completed_total", "beas_plancache_hits_total", "beas_tag_queries/ndjson",
		"beas_query_duration_seconds/count", "beas_persist_snapshots",
	} {
		if stats[path] == 0 {
			t.Errorf("replay left %s at zero", path)
		}
	}
}

// syncBuffer is a goroutine-safe audit sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestAuditRecordsMatchAnswers replays queries against a server with
// auditing on and asserts exactly one NDJSON record per request whose
// budget_spent and eta byte-match the answer the client received.
func TestAuditRecordsMatchAnswers(t *testing.T) {
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	var sink syncBuffer
	audit := obs.NewAuditLog(&sink, obs.AuditFilter{}, 0)
	s, err := New(Config{
		System:       beas.Open(db, as),
		DefaultAlpha: 0.1,
		MaxRows:      50,
		Dataset:      "example1",
		DBSize:       db.Size(),
		Relations:    len(db.Names()),
		BudgetCap:    1000 * db.Size(),
		Audit:        audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	queries := []string{
		"select p.city from person as p where p.pid = 3",
		"select p.city from person as p where p.pid = 3", // plan-cache hit
		"select h.address from poi as h where h.type = 'hotel'",
		"select p.city from person as p where p.pid = 7",
	}
	var resps []QueryResponse
	for i, sql := range queries {
		rec, resp := postQuery(t, s, fmt.Sprintf(`{"sql": %q, "alpha": 0.3}`, sql))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d: %s", i, rec.Code, rec.Body)
		}
		resps = append(resps, resp)
	}
	// One failing request must also be audited, with its error and status.
	recFail, _ := postQuery(t, s, `{"sql": "select broken from", "alpha": 0.1}`)
	if recFail.Code == http.StatusOK {
		t.Fatal("broken SQL answered 200")
	}

	if err := audit.Close(); err != nil {
		t.Fatalf("audit close: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != len(queries)+1 {
		t.Fatalf("audit holds %d records, want %d (one per request)\n%s",
			len(lines), len(queries)+1, sink.String())
	}
	if audit.Dropped() != 0 {
		t.Fatalf("audit dropped %d records under sequential replay", audit.Dropped())
	}

	// jsonNum renders a value the way encoding/json rendered the response,
	// so "byte-match" means exactly that.
	jsonNum := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i, line := range lines[:len(queries)] {
		var rec obs.AuditRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v\n%s", i, err, line)
		}
		resp := resps[i]
		if rec.Event != "query" || rec.Status != http.StatusOK || rec.Err != "" {
			t.Errorf("record %d: event=%q status=%d err=%q", i, rec.Event, rec.Status, rec.Err)
		}
		if rec.SQLDigest != obs.SQLDigest(queries[i]) {
			t.Errorf("record %d: sql_digest %q, want %q", i, rec.SQLDigest, obs.SQLDigest(queries[i]))
		}
		if got, want := jsonNum(rec.BudgetSpent), jsonNum(resp.Accessed); got != want {
			t.Errorf("record %d: budget_spent %s, response accessed %s", i, got, want)
		}
		if got, want := jsonNum(rec.Eta), jsonNum(resp.Eta); got != want {
			t.Errorf("record %d: eta %s, response eta %s", i, got, want)
		}
		if rec.BudgetGranted != resp.Budget || rec.Exact != resp.Exact ||
			rec.CacheHit != resp.CacheHit {
			t.Errorf("record %d: granted/exact/cache_hit diverge from response: %+v vs %+v", i, rec, resp)
		}
		if rec.LatencyMicros <= 0 {
			t.Errorf("record %d: latency_us = %d", i, rec.LatencyMicros)
		}
	}
	var failRec obs.AuditRecord
	if err := json.Unmarshal([]byte(lines[len(queries)]), &failRec); err != nil {
		t.Fatal(err)
	}
	if failRec.Status != recFail.Code || failRec.Err == "" {
		t.Errorf("failure record: status=%d err=%q, want status %d and an error",
			failRec.Status, failRec.Err, recFail.Code)
	}
}
