package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a query trace tree. Every method is nil-safe:
// instrumentation sites call Child/Set*/End unconditionally and a nil
// span (tracing disabled) makes each a no-op costing one nil check, so
// the disabled path stays allocation-free.
//
// A span records wall time plus a small set of typed attributes — tuples
// accessed vs. budget granted, the resolution level served, the η
// contribution, a fetch step's X-values and samples, peer identity, retry
// and circuit state. Child spans may be opened concurrently (parallel
// leaves, per-peer RPC fan-out); the child list is mutex-guarded.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	// Key is the attribute name.
	Key string
	// Val is the attribute value (int64, float64, string or bool).
	Val any
}

// Trace is a query-scoped span tree: a root span plus everything opened
// beneath it. The zero value is unusable; NewTrace starts the root.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span has the given name.
func NewTrace(name string) *Trace {
	return &Trace{root: &Span{name: name, start: time.Now()}}
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End closes the root span.
func (t *Trace) End() { t.Root().End() }

// Child opens a new child span under s, started now. On a nil span it
// returns nil, so disabled call sites compose for free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Idempotent; a second End
// (e.g. a defer racing an explicit close) keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, v})
	s.mu.Unlock()
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, v})
	s.mu.Unlock()
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, v})
	s.mu.Unlock()
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, v})
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's closed duration (0 while open or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Ended reports whether the span has been closed.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Children returns a snapshot of the span's children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	s.mu.Unlock()
	return out
}

// Attrs returns a snapshot of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	s.mu.Unlock()
	return out
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (nil when absent). A test and rendering helper.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Unclosed counts spans in the subtree that were opened but never ended —
// zero on a balanced trace. The adversity tests (cancellation, panic,
// killed peer) assert on it.
func (s *Span) Unclosed() int {
	if s == nil {
		return 0
	}
	n := 0
	if !s.Ended() {
		n = 1
	}
	for _, c := range s.Children() {
		n += c.Unclosed()
	}
	return n
}

// Count returns the total number of spans in the subtree.
func (s *Span) Count() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += c.Count()
	}
	return n
}

// String renders the trace as an indented tree, one span per line:
// name, duration, then key=value attributes in insertion order.
func (t *Trace) String() string {
	if t == nil || t.root == nil {
		return ""
	}
	var b strings.Builder
	t.root.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, dur, ended := s.name, s.dur, s.ended
	attrs := make([]Attr, len(s.attrs))
	copy(attrs, s.attrs)
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()

	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(name)
	if ended {
		fmt.Fprintf(b, " %v", dur.Round(time.Microsecond))
	} else {
		b.WriteString(" (open)")
	}
	for _, a := range attrs {
		switch v := a.Val.(type) {
		case float64:
			fmt.Fprintf(b, " %s=%.4g", a.Key, v)
		default:
			fmt.Fprintf(b, " %s=%v", a.Key, v)
		}
	}
	b.WriteByte('\n')
	// Children render in start order so concurrent fan-outs read stably.
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	for _, c := range kids {
		c.render(b, depth+1)
	}
}

// SpanJSON is the wire shape of one span for the debug=trace response.
type SpanJSON struct {
	// Name is the span name.
	Name string `json:"name"`
	// Micros is the span duration in microseconds (0 while open).
	Micros int64 `json:"micros"`
	// Attrs holds the span's attributes (omitted when empty).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children holds the nested spans (omitted when empty).
	Children []SpanJSON `json:"children,omitempty"`
}

// JSON converts the trace into its wire shape (zero value on nil).
func (t *Trace) JSON() SpanJSON {
	if t == nil || t.root == nil {
		return SpanJSON{}
	}
	return t.root.json()
}

func (s *Span) json() SpanJSON {
	out := SpanJSON{Name: s.Name(), Micros: s.Duration().Microseconds()}
	attrs := s.Attrs()
	if len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	kids := s.Children()
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	for _, c := range kids {
		out.Children = append(out.Children, c.json())
	}
	return out
}

// ctxKey carries the active span on a context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span; a nil span
// returns ctx unchanged, so the disabled path adds no context layer.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the active span carried on ctx, or nil when tracing is
// disabled — the single lookup instrumentation sites pay per call.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
