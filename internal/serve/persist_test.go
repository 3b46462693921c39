package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/persist"

	beas "repro"
)

// persistedServer builds a Server over an OpenPersisted system bound to a
// temp directory.
func persistedServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	db := fixture.Example1(11, 120, 80)
	sys, err := beas.OpenPersisted(context.Background(), db, dir,
		beas.WithSchemaBuilder(fixture.SchemaA0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := New(Config{
		System:       sys,
		DefaultAlpha: 0.1,
		Dataset:      "example1",
		DBSize:       db.Size(),
		BudgetCap:    1000 * db.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

// statsBody fetches and decodes GET /stats.
func statsBody(t *testing.T, s *Server) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	return body
}

// stat reads one number from a /stats body: the named unlabelled series,
// or with a label value, that series of a labelled family.
func stat(t *testing.T, body map[string]any, name string, label ...string) float64 {
	t.Helper()
	v := body[name]
	if len(label) == 1 {
		byLabel, _ := v.(map[string]any)
		v = byLabel[label[0]]
	}
	n, ok := v.(float64)
	if !ok {
		t.Fatalf("/stats has no number at %s %v: %v", name, label, body[name])
	}
	return n
}

// /stats must expose uptime, per-ladder footprints, and — on a persisted
// system — the snapshot/WAL counters operators size thresholds with.
func TestStatsUptimeLaddersPersist(t *testing.T) {
	s, _ := persistedServer(t)
	body := statsBody(t, s)

	if up := stat(t, body, "beas_uptime_seconds"); up < 0 {
		t.Errorf("uptime = %v", up)
	}
	groups, _ := body["beas_ladder_groups"].(map[string]any)
	if len(groups) == 0 {
		t.Fatalf("beas_ladder_groups = %v", body["beas_ladder_groups"])
	}
	for ladder := range groups {
		for _, fam := range []string{"beas_ladder_levels", "beas_ladder_resident_tuples", "beas_ladder_max_group_distinct"} {
			stat(t, body, fam, ladder)
		}
	}
	if _, ok := groups["person(pid->city)"]; !ok {
		t.Errorf("no series for the person(pid->city) ladder: %v", groups)
	}
	if n := stat(t, body, "beas_persist_snapshots"); n < 1 {
		t.Errorf("snapshots = %v, want ≥ 1 (the cold-start snapshot)", n)
	}
	stat(t, body, "beas_persist_wal_records")
	if stat(t, body, "beas_persist_checkpoint_state", "healthy") != 1 {
		t.Errorf("checkpoint state = %v, want healthy", body["beas_persist_checkpoint_state"])
	}

	// An in-memory system reports no persistence series.
	mem := testServer(t)
	for name := range statsBody(t, mem) {
		if strings.HasPrefix(name, "beas_persist_") {
			t.Errorf("in-memory /stats has %s", name)
		}
	}
}

// POST /snapshot with no body checkpoints a persisted system, truncating
// the WAL; on an in-memory system it must refuse with 409.
func TestSnapshotEndpoint(t *testing.T) {
	s, _ := persistedServer(t)
	rec := httptest.NewRecorder()
	s.handleSnapshot(rec, httptest.NewRequest(http.MethodPost, "/snapshot", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", rec.Code, rec.Body)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "ok" || resp["dir"] != "" || len(resp) != 3 {
		t.Errorf("snapshot response = %v, want status, dir and tookMs", resp)
	}
	if n := stat(t, statsBody(t, s), "beas_persist_checkpoints"); n < 2 { // cold-start + this one
		t.Errorf("checkpoints = %v, want ≥ 2", n)
	}

	// Standalone copy into another directory.
	dir2 := t.TempDir()
	body := fmt.Sprintf(`{"dir": %q}`, dir2)
	rec = httptest.NewRecorder()
	s.handleSnapshot(rec, httptest.NewRequest(http.MethodPost, "/snapshot", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot-to-dir status %d: %s", rec.Code, rec.Body)
	}
	db := fixture.Example1(11, 120, 80)
	if _, _, err := persist.Load(context.Background(), db, dir2); err != nil {
		t.Errorf("standalone snapshot does not load: %v", err)
	}

	// In-memory system: 409.
	mem := testServer(t)
	rec = httptest.NewRecorder()
	mem.handleSnapshot(rec, httptest.NewRequest(http.MethodPost, "/snapshot", strings.NewReader("")))
	if rec.Code != http.StatusConflict {
		t.Errorf("in-memory snapshot status %d, want 409", rec.Code)
	}
	// GET is not allowed.
	rec = httptest.NewRecorder()
	s.handleSnapshot(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET snapshot status %d", rec.Code)
	}
}

// Close must drain the accepted /batch backlog: every admitted job finishes
// with a real result instead of a shutdown error.
func TestCloseDrainsBatchQueue(t *testing.T) {
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	// One slow worker and a deep queue: most jobs are still queued when
	// Close runs.
	s, err := New(Config{
		System:       beas.Open(db, as),
		DefaultAlpha: 0.1,
		DBSize:       db.Size(),
		Workers:      1,
		QueueDepth:   64,
		BudgetCap:    1000 * db.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for i := 0; i < 24; i++ {
		queries = append(queries, fmt.Sprintf(`{"sql": "select p.city from person as p where p.pid = %d"}`, i))
	}
	body := fmt.Sprintf(`{"queries": [%s], "deadlineMs": 30000}`, strings.Join(queries, ","))

	var wg sync.WaitGroup
	var resp BatchResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, resp = postBatch(t, s, body)
	}()
	// Give the handler a moment to enqueue, then close while jobs queue.
	time.Sleep(20 * time.Millisecond)
	s.Close()
	wg.Wait()

	for i, e := range resp.Results {
		if e.Error != "" || e.Cancelled {
			t.Fatalf("entry %d failed during drain: %+v", i, e)
		}
		if e.Rows == 0 && len(e.Columns) == 0 {
			t.Fatalf("entry %d has no result after drain", i)
		}
	}
}

// A persistence circuit opened by a failing checkpoint takes the server
// out of rotation, and the /readyz reason carries the checkpoint's error.
func TestReadinessNamesCheckpointError(t *testing.T) {
	dir := t.TempDir()
	db := fixture.Example1(11, 120, 80)
	sys, err := beas.OpenPersisted(context.Background(), db, dir,
		beas.WithSchemaBuilder(fixture.SchemaA0), beas.WithCheckpointRetries(1), beas.WithPersistLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := New(Config{System: sys, DBSize: db.Size()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// A plain file where the directory was makes every checkpoint fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleSnapshot(rec, httptest.NewRequest(http.MethodPost, "/snapshot", strings.NewReader("")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("checkpoint over a file: status %d: %s", rec.Code, rec.Body)
	}
	ckptErr := sys.PersistStats().CheckpointErr
	rec = httptest.NewRecorder()
	s.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready struct {
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || ckptErr == "" || len(ready.Reasons) != 1 ||
		!strings.Contains(ready.Reasons[0], "persistence circuit open") || !strings.Contains(ready.Reasons[0], ckptErr) {
		t.Fatalf("readyz %d %v, want 503 naming the open circuit and %q", rec.Code, ready.Reasons, ckptErr)
	}
	if stat(t, statsBody(t, s), "beas_persist_checkpoint_state", "circuit-open") != 1 {
		t.Errorf("checkpoint state = %v, want circuit-open", statsBody(t, s)["beas_persist_checkpoint_state"])
	}
}
