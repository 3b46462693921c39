package serve

// Brownout and crash-containment tests. Degradation behaviour is made
// deterministic by pinning the controller level ("1".."3"); the hysteresis
// state machine itself is unit-tested with synthetic clocks and pressures.
// The load-bearing invariant — a degraded answer is still η-certified and
// still within its (shrunk) access budget — is asserted against the shared
// query corpus, the same yardstick the soundness and persistence suites use.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	beas "repro"
	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
)

// brownoutServer is testServer with a pinned or tuned brownout controller.
func brownoutServer(t *testing.T, bc BrownoutConfig) *Server {
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
		BudgetCap:    1000 * db.Size(),
		Brownout:     bc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestDegradeAlpha: each level quarters α again, the floor holds, and the
// floor is capped at the request's α so degradation never raises a bound.
func TestDegradeAlpha(t *testing.T) {
	cases := []struct {
		alpha, floor float64
		level        int
		want         float64
	}{
		{0.6, 0.02, BrownoutNormal, 0.6},
		{0.6, 0.02, BrownoutShrink, 0.15},      // α/4
		{0.6, 0.02, BrownoutShedBatch, 0.0375}, // α/16
		{0.6, 0.05, BrownoutShedBatch, 0.05},   // floor holds
		{0.01, 0.02, BrownoutShrink, 0.01},     // floor capped at α
		{0.6, 0.5, BrownoutShedAll, 0.5},       // deep shrink still floored
	}
	for _, c := range cases {
		if got := degradeAlpha(c.alpha, c.floor, c.level); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("degradeAlpha(%g, %g, %d) = %g, want %g", c.alpha, c.floor, c.level, got, c.want)
		}
	}
}

// TestBrownoutControllerHysteresis: the state machine steps one level per
// cooldown window, holds in the hysteresis band, and saturates at both ends.
func TestBrownoutControllerHysteresis(t *testing.T) {
	b, err := newBrownoutController(BrownoutConfig{Cooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	at := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }

	if l := b.decide(at(0), 0.9); l != 1 {
		t.Fatalf("first overload decision = %d, want 1", l)
	}
	// Cooldown: pressure still high but the level must not step again yet.
	if l := b.decide(at(0.2), 0.95); l != 1 {
		t.Fatalf("decision inside cooldown = %d, want 1", l)
	}
	if l := b.decide(at(1.5), 0.95); l != 2 {
		t.Fatalf("second step = %d, want 2", l)
	}
	// Hysteresis band between StepDown (0.4) and StepUp (0.8): hold.
	if l := b.decide(at(3), 0.6); l != 2 {
		t.Fatalf("in-band decision = %d, want 2 held", l)
	}
	if l := b.decide(at(4.5), 0.1); l != 1 {
		t.Fatalf("recovery step = %d, want 1", l)
	}
	if l := b.decide(at(6), 0.1); l != 0 {
		t.Fatalf("full recovery = %d, want 0", l)
	}
	if l := b.decide(at(7.5), 0.1); l != 0 {
		t.Fatalf("idle decision = %d, want 0 (no underflow)", l)
	}
	// Saturate upward: the level never exceeds BrownoutShedAll.
	for sec := 10.0; sec < 20; sec += 1.5 {
		b.decide(at(sec), 1.5)
	}
	if l, _ := b.snapshot(); l != BrownoutShedAll {
		t.Fatalf("saturated level = %d, want %d", l, BrownoutShedAll)
	}

	// Pinned and off modes ignore pressure entirely.
	off, _ := newBrownoutController(BrownoutConfig{Mode: "off"})
	if l := off.decide(t0, 99); l != BrownoutNormal {
		t.Errorf("off mode level = %d", l)
	}
	pinned, _ := newBrownoutController(BrownoutConfig{Mode: "2"})
	if l := pinned.decide(t0, 0); l != 2 {
		t.Errorf("pinned mode level = %d", l)
	}
	if _, err := newBrownoutController(BrownoutConfig{Mode: "max"}); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestRejectionPressureSignal: the admission-rejection EWMA climbs toward 1
// under sustained rejection, recovers under successful admissions, and
// decays toward zero once admissions stop arriving — so a level that sheds
// /batch (and thus stops producing samples) releases its own hold.
func TestRejectionPressureSignal(t *testing.T) {
	b, err := newBrownoutController(BrownoutConfig{Smoothing: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p := b.rejectionPressure(time.Now()); p != 0 {
		t.Fatalf("pressure before any admission = %g, want 0", p)
	}
	for i := 0; i < 64; i++ {
		b.noteAdmission(true)
	}
	if p := b.rejectionPressure(time.Now()); p < 0.8 {
		t.Fatalf("pressure after sustained rejection = %g, want >= 0.8", p)
	}
	// Idle decay: with no fresh admissions the signal must release.
	if p := b.rejectionPressure(time.Now().Add(3 * time.Second)); p > 0.01 {
		t.Errorf("pressure 3s after last admission = %g, want ~0", p)
	}
	// Successful admissions pull the live signal back down.
	for i := 0; i < 64; i++ {
		b.noteAdmission(false)
	}
	if p := b.rejectionPressure(time.Now()); p > 0.1 {
		t.Errorf("pressure after sustained admission = %g, want <= 0.1", p)
	}
	// Non-auto controllers ignore the signal entirely.
	off, _ := newBrownoutController(BrownoutConfig{Mode: "off"})
	off.noteAdmission(true)
	if p := off.rejectionPressure(time.Now()); p != 0 {
		t.Errorf("off-mode rejection pressure = %g, want 0", p)
	}
}

// TestBrownoutDegradesQuery: at a pinned shrink level /query answers with a
// smaller effective α, marks the degradation, reports both ratios, and the
// answer still carries a certified η. A request's own minAlpha floors its
// degradation above the server default.
func TestBrownoutDegradesQuery(t *testing.T) {
	s := brownoutServer(t, BrownoutConfig{Mode: "1"})
	rec, resp := postQuery(t, s, `{"sql": "select p.city from person as p", "alpha": 0.6}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !resp.Degraded || resp.BrownoutLevel != 1 {
		t.Fatalf("response not marked degraded: %+v", resp)
	}
	if resp.Alpha != 0.15 || resp.RequestedAlpha != 0.6 {
		t.Errorf("(achieved, requested) = (%g, %g), want (0.15, 0.6)", resp.Alpha, resp.RequestedAlpha)
	}
	if resp.Eta < 0 || resp.Eta > 1 {
		t.Errorf("degraded eta = %g, want a certified bound in [0, 1]", resp.Eta)
	}

	// The request's own floor wins over the server default.
	rec, resp = postQuery(t, s, `{"sql": "select p.city from person as p", "alpha": 0.6, "minAlpha": 0.5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("floored status %d: %s", rec.Code, rec.Body)
	}
	if resp.Alpha != 0.5 || !resp.Degraded {
		t.Errorf("floored achieved alpha = %g (degraded=%v), want 0.5", resp.Alpha, resp.Degraded)
	}

	// An un-degraded answer carries no brownout fields.
	off := brownoutServer(t, BrownoutConfig{Mode: "off"})
	rec, resp = postQuery(t, off, `{"sql": "select p.city from person as p", "alpha": 0.6}`)
	if rec.Code != http.StatusOK || resp.Degraded || resp.Alpha != 0.6 {
		t.Errorf("brownout-off response: status %d, %+v", rec.Code, resp)
	}

	// The mode and the degradation counter surface on /stats.
	st := statsBody(t, s)
	if stat(t, st, "beas_brownout_mode", "1") != 1 || stat(t, st, "beas_degraded_total") < 2 {
		t.Errorf("brownout mode %v, degraded %v", st["beas_brownout_mode"], st["beas_degraded_total"])
	}
}

// TestBrownoutShedding: /batch is shed at level 2 while /query still
// answers; level 3 sheds /query and /stream too, with Retry-After hints.
func TestBrownoutShedding(t *testing.T) {
	s := brownoutServer(t, BrownoutConfig{Mode: "2"})
	rec, _ := postBatch(t, s, `{"queries": [{"sql": "select p.city from person as p"}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch at level 2: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response lacks Retry-After")
	}
	if rec, _ := postQuery(t, s, `{"sql": "select p.city from person as p"}`); rec.Code != http.StatusOK {
		t.Fatalf("query at level 2: status %d, want 200 (degraded service)", rec.Code)
	}

	s3 := brownoutServer(t, BrownoutConfig{Mode: "3"})
	if rec, _ := postQuery(t, s3, `{"sql": "select p.city from person as p"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query at level 3: status %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s3.handleStream(rec, httptest.NewRequest(http.MethodPost, "/stream",
		strings.NewReader(`{"sql": "select p.city from person as p"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stream at level 3: status %d, want 503", rec.Code)
	}
	if shed := stat(t, statsBody(t, s3), "beas_shed_total"); shed < 2 {
		t.Errorf("shed counter = %v, want >= 2", shed)
	}
}

// TestDegradedAnswersStayEtaCertified: the tentpole invariant, asserted
// against the shared corpus — at every shrink level, the degraded effective
// α still yields a SOUND certified bound (realised RC accuracy never below
// the reported η, Theorems 5/6) and tuple access within the shrunk budget.
// Brownout trades accuracy for resources; it never trades away soundness.
func TestDegradedAnswersStayEtaCertified(t *testing.T) {
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	sys := beas.Open(db, as)
	ctx := context.Background()
	const floor = 0.02
	for level := BrownoutShrink; level <= BrownoutShedBatch; level++ {
		for i, c := range corpus.Default() {
			fl := math.Min(floor, c.Alpha)
			eff := degradeAlpha(c.Alpha, fl, level)
			ans, plan, err := sys.Query(ctx, c.Query, beas.WithAlpha(eff), beas.WithMinAlpha(fl))
			if err != nil {
				t.Fatalf("level %d case %d (alpha %g -> %g): %v", level, i, c.Alpha, eff, err)
			}
			if ans.Eta < 0 || ans.Eta > 1 {
				t.Errorf("level %d case %d: degraded eta = %g outside [0, 1]", level, i, ans.Eta)
			}
			if ans.Stats.Accessed > plan.Budget {
				t.Errorf("level %d case %d: accessed %d > degraded budget %d", level, i, ans.Stats.Accessed, plan.Budget)
			}
			ev, err := accuracy.NewEvaluator(db, c.Query)
			if err != nil {
				t.Fatalf("level %d case %d: evaluator: %v", level, i, err)
			}
			if rep := ev.RC(ans.Rel); rep.Accuracy+1e-9 < ans.Eta {
				t.Errorf("level %d case %d: accuracy %.4f < certified eta %.4f — degradation broke soundness",
					level, i, rep.Accuracy, ans.Eta)
			}
		}
	}
}

// TestEvaluatorPanicRegression: a panic deep in the evaluator surfaces as a
// 500 with the internalErrors counter bumped — and the server, same process,
// keeps answering the corpus once the fault is gone.
func TestEvaluatorPanicRegression(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	prev := core.ExecPanicHook
	core.ExecPanicHook = func() { panic("forced evaluator panic") }
	t.Cleanup(func() { core.ExecPanicHook = prev })

	body := `{"sql": "select p.city from person as p", "alpha": 0.5}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500\n%s", rec.Code, rec.Body)
	}
	if got := stat(t, statsBody(t, s), "beas_internal_errors_total"); got < 1 {
		t.Fatalf("internalErrors = %v after contained panic, want >= 1", got)
	}

	// Fault cleared: the same process answers normally again...
	core.ExecPanicHook = nil
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after contained panic: status %d\n%s", rec.Code, rec.Body)
	}
	// ...including a corpus slice through the engine the handler shares.
	ctx := context.Background()
	for i, c := range corpus.Default()[:30] {
		if _, _, err := s.cfg.System.Query(ctx, c.Query, beas.WithAlpha(c.Alpha)); err != nil {
			t.Fatalf("corpus case %d after contained panic: %v", i, err)
		}
	}
}

// TestRecoverMiddleware: a panic in any handler (not just the evaluator) is
// contained by the outer middleware — 500, counter, process survives.
func TestRecoverMiddleware(t *testing.T) {
	s := testServer(t)
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if s.internalErrors.Value() != 1 {
		t.Errorf("internalErrors = %d, want 1", s.internalErrors.Value())
	}
	// http.ErrAbortHandler is net/http's own control flow and must re-raise.
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler swallowed by the middleware")
		}
	}()
	h2 := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestReadiness: /healthz stays 200 through everything (liveness), while
// /readyz flips to 503 with explicit reasons when draining or at max
// brownout.
func TestReadiness(t *testing.T) {
	s := testServer(t)
	readyz := func(srv *Server) (int, []string) {
		rec := httptest.NewRecorder()
		srv.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var body struct {
			Reasons []string `json:"reasons"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body.Reasons
	}

	if code, _ := readyz(s); code != http.StatusOK {
		t.Fatalf("fresh server readiness = %d, want 200", code)
	}
	s.StartDrain()
	code, reasons := readyz(s)
	if code != http.StatusServiceUnavailable || len(reasons) == 0 || !strings.Contains(reasons[0], "draining") {
		t.Fatalf("draining readiness = %d %v, want 503 with a draining reason", code, reasons)
	}
	// Liveness is unaffected by drain.
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness)", rec.Code)
	}

	s3 := brownoutServer(t, BrownoutConfig{Mode: "3"})
	code, reasons = readyz(s3)
	if code != http.StatusServiceUnavailable || len(reasons) == 0 || !strings.Contains(reasons[0], "brownout") {
		t.Fatalf("max-brownout readiness = %d %v, want 503 with a brownout reason", code, reasons)
	}
}

// The window's p95 is the sample the sort of a copy of the window puts at
// index n·95/100 — over full windows and partly filled ones, with ties —
// and reading it through pressure() allocates nothing.
func TestBrownoutP95MatchesSort(t *testing.T) {
	reference := func(window []time.Duration) time.Duration {
		if len(window) == 0 {
			return 0
		}
		tmp := append([]time.Duration(nil), window...)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		return tmp[min(len(tmp)*95/100, len(tmp)-1)]
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		b, err := newBrownoutController(BrownoutConfig{Window: 1 + rng.Intn(200)})
		if err != nil {
			t.Fatal(err)
		}
		var window []time.Duration // the samples the window holds
		for i, n := 0, rng.Intn(3*len(b.lat)); i < n; i++ {
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			b.observe(d)
			window = append(window, d)
			if len(window) > len(b.lat) {
				window = window[1:]
			}
		}
		b.mu.Lock()
		got := b.p95Locked()
		b.mu.Unlock()
		if want := reference(window); got != want {
			t.Fatalf("trial %d (window %d, %d samples): p95 = %v, sort gives %v", trial, len(b.lat), len(window), got, want)
		}
	}
	s := brownoutServer(t, BrownoutConfig{})
	for i := 0; i < 300; i++ {
		s.brown.observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.pressure() }); allocs != 0 {
		t.Fatalf("pressure() allocates %v times per call, want 0", allocs)
	}
}
