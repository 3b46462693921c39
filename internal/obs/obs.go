// Package obs is the engine's observability substrate: query-scoped span
// traces, a dependency-free metrics registry rendered as Prometheus text
// exposition or JSON, a structured NDJSON audit log, and a small leveled
// logger.
//
// The package is deliberately self-contained (stdlib only) and designed
// around two cost rules:
//
//   - Disabled must be (almost) free. Tracing is carried on the context as
//     a *Span; every Span method is nil-safe, so an untraced query pays one
//     ctx lookup plus a nil check per instrumentation point — no
//     allocation, no branch misprediction storm in hot loops.
//   - Hot-path increments must not allocate. Counters, gauges and
//     histogram observations are single atomic operations on
//     pre-registered instruments; all formatting work happens at scrape
//     time.
//
// The three facilities are independent but share the vocabulary the rest
// of the engine threads through: serve wires all of them, core/plan/
// cluster carry spans, and plancache/persist/cluster own registry
// instruments in place of hand-rolled counters (so /stats and /metrics
// are two renderings of one bookkeeping system).
package obs
