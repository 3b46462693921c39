package core

// Crash-containment regression tests: a panic anywhere in the evaluator —
// a leaf run in order or a concurrent leaf's goroutine — must surface as a
// typed *guard.PanicError on the calling goroutine instead of killing the
// process, and must not poison subsequent queries.
// Plus the MinAlpha floor: degradation may not shrink α below the caller's
// accuracy SLO.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/guard"
	"repro/internal/query"
)

// withPanicHook installs a hook forcing a panic on every leaf execution and
// restores the previous hook on cleanup.
func withPanicHook(t *testing.T, hook func()) {
	t.Helper()
	prev := ExecPanicHook
	ExecPanicHook = hook
	t.Cleanup(func() { ExecPanicHook = prev })
}

// wantSchedule fails the test unless q's plan under o runs its leaves
// concurrently (an affordable multi-leaf plan) or in order, as asked.
func wantSchedule(t *testing.T, s *Scheme, q query.Expr, o ExecOptions, concurrent bool) {
	t.Helper()
	p, err := s.PlanContext(context.Background(), q, o)
	if err != nil {
		t.Fatal(err)
	}
	if (p.shares != nil) != concurrent {
		t.Fatalf("%s: concurrent schedule %v, want %v", query.Render(q), p.shares != nil, concurrent)
	}
}

func TestPanicInSequentialLeafIsContained(t *testing.T) {
	s, _ := setup(t)
	wantSchedule(t, s, fixture.Q1(3, 95), ExecOptions{Alpha: 0.5}, false)
	withPanicHook(t, func() { panic("forced evaluator failure") })
	_, _, err := s.AnswerContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: 0.5})
	pe, ok := guard.AsPanic(err)
	if !ok {
		t.Fatalf("err = %v, want contained *guard.PanicError", err)
	}
	if !strings.Contains(pe.Error(), "forced evaluator failure") || len(pe.Stack) == 0 {
		t.Errorf("panic error lacks cause or stack: %v (stack %d bytes)", pe, len(pe.Stack))
	}

	// The scheme must still answer once the poison is gone.
	withPanicHook(t, nil)
	if _, _, err := s.AnswerContext(context.Background(), fixture.Q1(3, 95), ExecOptions{Alpha: 0.5}); err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
}

func TestPanicInParallelLeafWorkerIsContained(t *testing.T) {
	s, _ := setup(t)
	q := &query.Union{L: fixture.Q1(3, 95), R: fixture.Q1(5, 120)}
	wantSchedule(t, s, q, ExecOptions{Alpha: 0.9}, true)
	withPanicHook(t, func() { panic("forced leaf failure") })
	_, _, err := s.AnswerContext(context.Background(), q, ExecOptions{Alpha: 0.9})
	if _, ok := guard.AsPanic(err); !ok {
		t.Fatalf("err = %v, want contained *guard.PanicError from a leaf goroutine", err)
	}

	withPanicHook(t, nil)
	if _, _, err := s.AnswerContext(context.Background(), q, ExecOptions{Alpha: 0.9}); err != nil {
		t.Fatalf("query after contained leaf-goroutine panic: %v", err)
	}
}

// The MinAlpha floor: a degraded α below the floor is clamped back up, a
// request already above the floor is untouched, and an out-of-range floor
// is rejected.
func TestMinAlphaFloor(t *testing.T) {
	s, db := setup(t)
	alpha, budget, err := s.resolveBudget(ExecOptions{Alpha: 0.001, MinAlpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if alpha != 0.2 || budget != int(0.2*float64(db.Size())) {
		t.Errorf("clamped (alpha, budget) = (%g, %d), want floor 0.2 applied", alpha, budget)
	}

	alpha, _, err = s.resolveBudget(ExecOptions{Alpha: 0.6, MinAlpha: 0.2})
	if err != nil || alpha != 0.6 {
		t.Errorf("above-floor alpha = %g, %v; want 0.6 untouched", alpha, err)
	}

	// The floor alone is enough to make a call runnable (Alpha zero).
	alpha, _, err = s.resolveBudget(ExecOptions{MinAlpha: 0.3})
	if err != nil || alpha != 0.3 {
		t.Errorf("floor-only alpha = %g, %v; want 0.3", alpha, err)
	}

	if _, _, err := s.resolveBudget(ExecOptions{Alpha: 0.5, MinAlpha: 1.5}); err == nil {
		t.Error("MinAlpha 1.5 accepted, want range error")
	}
	if _, _, err := s.resolveBudget(ExecOptions{Alpha: 0.5, MinAlpha: -0.1}); err == nil {
		t.Error("MinAlpha -0.1 accepted, want range error")
	}

	// Budget still wins over both.
	_, budget, err = s.resolveBudget(ExecOptions{Budget: 17, MinAlpha: 0.9})
	if err != nil || budget != 17 {
		t.Errorf("budget path = %d, %v; want explicit 17", budget, err)
	}
}
