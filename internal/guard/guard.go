// Package guard contains the execution layer's panic containment: a panic
// inside query execution — the evaluator, a parallel leaf worker, a cluster
// node answering a peer's fetch — must not kill the process that is serving
// every other query. Recover converts such a panic into a typed *PanicError
// carrying the panicking operation, the panic value and the goroutine
// stack, so the failure surfaces to the caller as an ordinary error (the
// serving layer maps it to HTTP 500 and an internalErrors counter) while
// the rest of the system keeps answering.
//
// The guard is deliberately narrow: it wraps the engine's own execution
// entry points and the goroutines the engine spawns, where an escaped panic
// is unrecoverable by any caller. Panics elsewhere on a caller's goroutine
// are left to the caller (the HTTP layer installs its own recovery
// middleware for those).
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// PanicError is a recovered panic from an execution goroutine, surfaced as
// an error. It is the root package's beas.InternalError: callers can
// errors.As for it to distinguish an engine defect (bug — report it, count
// it, keep serving) from an ordinary query failure.
type PanicError struct {
	// Op names the guarded operation that panicked ("leaf execution",
	// "parallel row emit", ...).
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error renders the panic as a single line; the stack is carried separately
// so logs can print it without it leaking into client-facing messages.
func (e *PanicError) Error() string {
	return fmt.Sprintf("internal error: panic during %s: %v", e.Op, e.Value)
}

// Recover converts an in-flight panic into a *PanicError stored in *errp.
// Use it as the FIRST deferred call of a guarded goroutine (so it runs
// before any channel-closing defers observe the error):
//
//	defer guard.Recover("leaf execution", &err)
//
// A panic value that already is a *PanicError is passed through unwrapped
// (an inner guard already annotated it). When no panic is in flight, *errp
// is left untouched.
func Recover(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if pe, ok := r.(*PanicError); ok {
		*errp = pe
		return
	}
	pe := &PanicError{Op: op, Value: r, Stack: debug.Stack()}
	if fn, ok := reporter.Load().(func(*PanicError)); ok && fn != nil {
		fn(pe)
	}
	*errp = pe
}

// reporter holds the process-wide panic reporter (func(*PanicError)).
var reporter atomic.Value

// SetReporter installs a process-wide observer called once per contained
// panic, at the point of recovery — before the error propagates to any
// caller. The daemon points it at the structured logger so engine panics
// are machine-parseable events even on paths that never reach an HTTP
// response (batch workers, peer fetches). The reporter must not panic;
// nil uninstalls. Only freshly recovered panics are reported — a
// *PanicError re-thrown through an outer guard is not double-counted.
func SetReporter(fn func(*PanicError)) {
	reporter.Store(fn)
}

// AsPanic unwraps err to its *PanicError if one is in its chain.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
