package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one staged operation share Op; Parent is the span that
// caused it (-1 for the operation's root).
//
// The benchmark cannot open a span inside the engine, so a child is either
// Derived — its duration is a time the engine reported (servedMs) and its
// start is its parent's — or Replayed — the same inner call made again right
// after the parent returned, attributed to it. Either way a layer's self time
// is its span's duration minus the durations of its children.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"startNs"`
	EndNS    int64  `json:"endNs"`
	Derived  bool   `json:"derived,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// tracer keeps the spans of one traced pass in memory.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

func newTracer(ops int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, ops*8)}
}

// timed records a span around f. A span whose parent has already ended is a
// replay of one of the parent's inner calls.
func (t *tracer) timed(name string, parent int, f func() error) (int, error) {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Replayed: parent >= 0 && t.spans[parent].EndNS != 0})
	t.spans[id].StartNS = int64(time.Since(t.t0))
	err := f()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	return id, err
}

// derived records a child whose duration the engine reported.
func (t *tracer) derived(name string, parent int, d time.Duration) int {
	id := len(t.spans)
	start := t.spans[parent].StartNS
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		StartNS: start, EndNS: start + int64(d), Derived: true})
	return id
}

// layerTable aggregates a traced pass: per span name (an operation has at
// most one span of a name) the durations and self times of the operations
// that had it, and the totals the table's shares are computed from.
type layerTable struct {
	names     []string
	dur, self map[string][]float64
	rootTotal float64 // Σ root durations (µs)
	overrun   float64 // Σ time by which replayed children exceeded their parents (µs)
}

func (t *tracer) table() *layerTable {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	lt := &layerTable{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range t.spans {
		if _, seen := lt.dur[s.Name]; !seen {
			lt.names = append(lt.names, s.Name)
		}
		if s.Parent < 0 {
			lt.rootTotal += s.dur()
		}
		self := s.dur() - child[s.ID]
		if self < 0 {
			lt.overrun -= self
			self = 0
		}
		lt.dur[s.Name] = append(lt.dur[s.Name], s.dur())
		lt.self[s.Name] = append(lt.self[s.Name], self)
	}
	return lt
}

// residualPct is how far the table's self times are from summing to the
// staged operations: the share by which they exceed it, 0 unless a replayed
// child took longer than its parent.
func (lt *layerTable) residualPct() float64 { return 100 * ratio(lt.overrun, lt.rootTotal) }

// layerRow is one line of a workload's layer table: how many operations had
// the span, the median duration where present, and the layer's self time as a
// share of all staged operations' time. The shares add up to 100% plus the
// residual.
type layerRow struct {
	Name     string  `json:"name"`
	Ops      int     `json:"ops"`
	P50US    float64 `json:"p50Us"`
	SelfP50  float64 `json:"selfP50Us"`
	SharePct float64 `json:"sharePct"`
}

func (lt *layerTable) rows() []layerRow {
	rows := make([]layerRow, 0, len(lt.names))
	for _, n := range lt.names {
		self := 0.0
		for _, v := range lt.self[n] {
			self += v
		}
		rows = append(rows, layerRow{n, len(lt.dur[n]), median(lt.dur[n]), median(lt.self[n]), 100 * ratio(self, lt.rootTotal)})
	}
	return rows
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
