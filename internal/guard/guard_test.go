package guard

import (
	"errors"
	"fmt"
	"testing"
)

// guarded runs fn under Recover the way the engine's goroutines do and
// returns what Recover left in the error.
func guarded(op string, err error, fn func()) error {
	func() {
		defer Recover(op, &err)
		fn()
	}()
	return err
}

// countReports installs a reporter counting its calls for the test's
// duration.
func countReports(t *testing.T) *int {
	t.Helper()
	n := 0
	SetReporter(func(*PanicError) { n++ })
	t.Cleanup(func() { SetReporter(nil) })
	return &n
}

func TestRecoverConvertsPanic(t *testing.T) {
	reports := countReports(t)
	err := guarded("leaf execution", nil, func() { panic("boom") })
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %#v, want *PanicError", err)
	}
	if pe.Op != "leaf execution" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic error = op %q value %v stack %d bytes", pe.Op, pe.Value, len(pe.Stack))
	}
	if want := "internal error: panic during leaf execution: boom"; pe.Error() != want {
		t.Errorf("Error() = %q, want %q", pe.Error(), want)
	}
	if *reports != 1 {
		t.Errorf("reporter fired %d times for one panic, want 1", *reports)
	}
}

// An inner guard's *PanicError re-thrown through an outer guard comes out
// as the same value, and the reporter does not count it a second time.
func TestRecoverPassesInnerPanicError(t *testing.T) {
	reports := countReports(t)
	inner := guarded("inner", nil, func() { panic("boom") })
	outer := guarded("outer", nil, func() { panic(inner) })
	if outer != inner {
		t.Fatalf("outer err = %v, want the inner *PanicError unwrapped", outer)
	}
	if pe := outer.(*PanicError); pe.Op != "inner" {
		t.Errorf("op = %q, want the inner guard's", pe.Op)
	}
	if *reports != 1 {
		t.Errorf("reporter fired %d times for one fresh panic, want 1", *reports)
	}
}

func TestRecoverWithoutPanicLeavesError(t *testing.T) {
	reports := countReports(t)
	prior := errors.New("ordinary failure")
	if err := guarded("op", prior, func() {}); err != prior {
		t.Errorf("err = %v, want the prior error untouched", err)
	}
	if err := guarded("op", nil, func() {}); err != nil {
		t.Errorf("err = %v, want nil untouched", err)
	}
	if *reports != 0 {
		t.Errorf("reporter fired %d times without a panic", *reports)
	}
}

func TestAsPanicThroughWrapping(t *testing.T) {
	pe := guarded("op", nil, func() { panic(42) }).(*PanicError)
	wrapped := fmt.Errorf("query failed: %w", fmt.Errorf("leaf 2: %w", pe))
	got, ok := AsPanic(wrapped)
	if !ok || got != pe {
		t.Fatalf("AsPanic(wrapped) = %v, %v; want the wrapped *PanicError", got, ok)
	}
	if _, ok := AsPanic(errors.New("plain")); ok {
		t.Error("AsPanic matched an error without a *PanicError")
	}
	if _, ok := AsPanic(nil); ok {
		t.Error("AsPanic matched nil")
	}
}
