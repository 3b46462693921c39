package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument. Inc and Add
// are single atomic operations — safe for concurrent use, zero
// allocation. Callers keep the pointer returned by the registry; the
// lookup cost is paid once at construction, not per increment.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter contract to hold;
// this is not checked on the hot path).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter. Exposition counters are normally monotone;
// Reset exists for owners whose lifecycle legitimately restarts the count
// (plancache.Purge discards the cache and its effectiveness history), which
// scrapers treat like a process restart.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable signed integer instrument (level, queue depth,
// boolean state as 0/1).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetBool stores 1 for true, 0 for false.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.v.Store(1)
	} else {
		g.v.Store(0)
	}
}

// Add adjusts the gauge by delta (may be negative) and returns the new
// value, so compare-and-release admission patterns read their own update.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution instrument. Observe is
// lock-free: a binary search over the (immutable) bucket bounds, one
// atomic bucket increment, one atomic count increment and a CAS loop for
// the float sum — no allocation.
type Histogram struct {
	initOnce sync.Once
	bounds   []float64 // upper bounds, ascending; +Inf implicit
	counts   []atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound >= v; the implicit +Inf bucket is
	// len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is the default latency bucket ladder in seconds:
// 100µs .. ~100s in powers of ~4.
var DurationBuckets = []float64{
	0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144,
}

// metricKind is the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// String returns the kind's exposition TYPE keyword (computed gauges
// render as plain gauges).
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labelled instance inside a family.
type series struct {
	labelVal string // empty for the unlabelled singleton
	counter  *Counter
	gauge    *Gauge
	fn       func() float64
	hist     *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // label name, empty for singleton families
	// computed, when set, produces the family's series at scrape time
	// (see GaugeFuncMap); series and byLabel then stay empty.
	computed func() map[string]float64
	mu       sync.Mutex
	series   []*series
	byLabel  map[string]*series
}

// adopt binds a caller-owned counter as the series for labelVal,
// replacing any auto-created one. This is how components keep owning
// their counters (plan cache hits, WAL records, per-peer failures) while
// the registry renders them: /stats and /metrics then read the very same
// atomics, so the two surfaces cannot drift apart.
func (f *family) adopt(labelVal string, c *Counter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byLabel[labelVal]; ok {
		s.counter = c
		return
	}
	s := &series{labelVal: labelVal, counter: c}
	f.byLabel[labelVal] = s
	f.series = append(f.series, s)
}

func (f *family) get(labelVal string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byLabel[labelVal]; ok {
		return s
	}
	s := &series{labelVal: labelVal}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = &Histogram{}
	}
	f.byLabel[labelVal] = s
	f.series = append(f.series, s)
	return s
}

// Registry is a set of metric families rendered in the Prometheus text
// exposition format. Instrument getters are get-or-create and idempotent;
// requesting an existing name with a conflicting kind, help or label
// panics (programmer error, caught by any test that touches the path).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help string, kind metricKind, label string) *family {
	if !validName(name) || label != "" && !validName(label) {
		panic("obs: invalid metric name " + name + " / label " + label)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, label: label, byLabel: map[string]*series{}}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic("obs: metric " + name + " re-registered with a different kind or label")
	}
	return f
}

// Counter returns the (single, unlabelled) counter of the named family,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, "").get("").counter
}

// Gauge returns the (single, unlabelled) gauge of the named family,
// creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, "").get("").gauge
}

// Histogram returns the (single, unlabelled) histogram of the named
// family with the given ascending upper bucket bounds (+Inf is implicit),
// creating it on first use. Later calls ignore the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	s := r.family(name, help, kindHistogram, "").get("")
	s.hist.init(bounds)
	return s.hist
}

func (h *Histogram) init(bounds []float64) {
	h.initOnce.Do(func() {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h.bounds = b
		h.counts = make([]atomic.Uint64, len(b)+1)
	})
}

// RegisterCounter binds an existing caller-owned counter as the named
// (unlabelled) family — the adopt path for components that predate the
// registry or outlive any one server.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.family(name, help, kindCounter, "").adopt("", c)
}

// RegisterCounterIn binds an existing counter as one labelled series of
// the named one-label counter family.
func (r *Registry) RegisterCounterIn(name, help, label, labelVal string, c *Counter) {
	r.family(name, help, kindCounter, label).adopt(labelVal, c)
}

// GaugeFunc registers a computed gauge: fn is evaluated at scrape time.
// Use it for values that are derived state (a p95 over a window, a
// circuit flag owned by a mutex) rather than maintained counts.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGaugeFunc, "").get("").fn = fn
}

// GaugeFuncVec registers one computed series of a one-label gauge family.
func (r *Registry) GaugeFuncVec(name, help, label, labelVal string, fn func() float64) {
	r.family(name, help, kindGaugeFunc, label).get(labelVal).fn = fn
}

// GaugeFuncMap registers a computed one-label gauge family: fn is
// evaluated at scrape time and returns the current value per label value.
// Use it for series whose label set is derived state (per-tag attribution,
// per-ladder footprints) so nothing is maintained on the query path.
func (r *Registry) GaugeFuncMap(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, kindGaugeFunc, label)
	f.mu.Lock()
	f.computed = fn
	f.mu.Unlock()
}

// walk visits every family with series, sorted by name, with its series
// sorted by label value — the one traversal both renderings share.
// Computed families are evaluated here.
func (r *Registry) walk(visit func(f *family, ser []*series)) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		ser := make([]*series, len(f.series))
		copy(ser, f.series)
		computed := f.computed
		f.mu.Unlock()
		if computed != nil {
			for lv, v := range computed() {
				ser = append(ser, &series{labelVal: lv, fn: func() float64 { return v }})
			}
		}
		if len(ser) == 0 {
			continue
		}
		sort.Slice(ser, func(i, j int) bool { return ser[i].labelVal < ser[j].labelVal })
		visit(f, ser)
	}
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family in the Prometheus text exposition
// format (text/plain; version=0.0.4), families sorted by name, series by
// label value.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	r.walk(func(f *family, ser []*series) {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			lbl := ""
			if f.label != "" {
				lbl = `{` + f.label + `="` + escapeLabel(s.labelVal) + `"}`
			}
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, lbl, s.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, lbl, s.gauge.Value())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, lbl, formatFloat(s.value()))
			case kindHistogram:
				writeHistogram(&b, f.name, s.hist)
			}
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// value is a computed series' current sample (0 before its function is
// bound).
func (s *series) value() float64 {
	if s.fn == nil {
		return 0
	}
	return s.fn()
}

// WriteJSON renders every family as one JSON object keyed by family name,
// from the same walk as WriteText: an unlabelled series is a number, a
// labelled family an object from label value to number, and a histogram an
// object with its count, sum and cumulative buckets keyed by upper bound
// (as in the le label). A non-finite computed value renders as null.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	r.walk(func(f *family, ser []*series) {
		if f.kind == kindHistogram {
			out[f.name] = histogramJSON(ser[0].hist)
			return
		}
		if f.label == "" {
			out[f.name] = jsonNumber(f.kind, ser[0])
			return
		}
		byLabel := make(map[string]any, len(ser))
		for _, s := range ser {
			byLabel[s.labelVal] = jsonNumber(f.kind, s)
		}
		out[f.name] = byLabel
	})
	return json.NewEncoder(w).Encode(out)
}

func jsonNumber(kind metricKind, s *series) any {
	switch kind {
	case kindCounter:
		return s.counter.Value()
	case kindGauge:
		return s.gauge.Value()
	}
	v := s.value()
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

func histogramJSON(h *Histogram) map[string]any {
	buckets := make(map[string]uint64, len(h.bounds)+1)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		buckets[formatFloat(bound)] = cum
	}
	buckets["+Inf"] = cum + h.counts[len(h.bounds)].Load()
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// JSONHandler returns an http.Handler serving the registry as WriteJSON
// renders it — the daemon mounts it at GET /stats.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
