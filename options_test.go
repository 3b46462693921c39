package beas_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	beas "repro"
	"repro/internal/fixture"
)

// TestWithBudgetAbsolute: WithBudget bounds the call by a tuple count, not
// a ratio — the plan carries exactly that budget, execution stays within
// it, and the derived alpha is budget/|D|.
func TestWithBudgetAbsolute(t *testing.T) {
	sys, db := exampleSystem(t)
	const budget = 37
	ans, plan, err := sys.Query(context.Background(), fixture.Q1(3, 95), beas.WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Budget != budget {
		t.Errorf("plan budget = %d, want %d", plan.Budget, budget)
	}
	wantAlpha := float64(budget) / float64(db.Size())
	if plan.Alpha != wantAlpha {
		t.Errorf("derived alpha = %g, want %g", plan.Alpha, wantAlpha)
	}
	if ans.Stats.Accessed > budget {
		t.Errorf("accessed %d > budget %d", ans.Stats.Accessed, budget)
	}
	// WithBudget wins over WithAlpha regardless of option order.
	_, p2, err := sys.Query(context.Background(), fixture.Q1(3, 95),
		beas.WithBudget(budget), beas.WithAlpha(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Budget != budget {
		t.Errorf("WithBudget overridden by WithAlpha: budget = %d", p2.Budget)
	}
	// A budget beyond |D| is a full-data bound, not an error.
	_, pBig, err := sys.Query(context.Background(), fixture.Q1(3, 95), beas.WithBudget(10*db.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if pBig.Alpha != 1 {
		t.Errorf("over-|D| budget: alpha = %g, want 1", pBig.Alpha)
	}
}

// TestWithCacheBypass: bypassing calls never touch the plan cache — no
// hits, no misses, no insertions — while a later cached call behaves
// normally.
func TestWithCacheBypass(t *testing.T) {
	sys, _ := exampleSystem(t)
	ctx := context.Background()
	q := fixture.Q1(3, 95)
	for i := 0; i < 2; i++ {
		if _, _, err := sys.Query(ctx, q, beas.WithAlpha(0.1), beas.WithCacheBypass()); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Len != 0 {
		t.Fatalf("bypassed calls touched the cache: %+v", st)
	}
	if _, _, err := sys.Query(ctx, q, beas.WithAlpha(0.1)); err != nil {
		t.Fatal(err)
	}
	if st := sys.PlanCacheStats(); st.Len != 1 {
		t.Fatalf("cached call did not populate the cache: %+v", st)
	}
}

// TestWithTagStats: tagged calls are broken out in QueryStats with their
// query count and tuple access; untagged calls are not recorded.
func TestWithTagStats(t *testing.T) {
	sys, _ := exampleSystem(t)
	ctx := context.Background()
	q := fixture.Q1(3, 95)
	if _, _, err := sys.Query(ctx, q, beas.WithAlpha(0.1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := sys.Query(ctx, q, beas.WithAlpha(0.1), beas.WithTag("tenant-a")); err != nil {
			t.Fatal(err)
		}
	}
	stats := sys.QueryStats()
	st, ok := stats["tenant-a"]
	if !ok {
		t.Fatalf("tag missing: %v", stats)
	}
	if st.Queries != 3 || st.Accessed <= 0 || st.Errors != 0 {
		t.Errorf("tag stats = %+v", st)
	}
	if len(stats) != 1 {
		t.Errorf("untagged calls recorded: %v", stats)
	}
	// Failures count as errors under the tag.
	if _, _, err := sys.Query(ctx, q, beas.WithAlpha(-1), beas.WithTag("tenant-a")); err == nil {
		t.Fatal("invalid alpha accepted")
	}
	if st := sys.QueryStats()["tenant-a"]; st.Errors != 1 {
		t.Errorf("error not attributed: %+v", st)
	}
}

// TestCancelledQueryPublic: the public API surfaces ctx.Err() from a
// cancelled call.
func TestCancelledQueryPublic(t *testing.T) {
	sys, _ := exampleSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sys.Query(ctx, fixture.Q1(3, 95), beas.WithAlpha(0.1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWithMinAlpha: the floor clamps a degraded α back up (the plan runs at
// max(α, minAlpha)), leaves an above-floor α untouched, and certified η is
// still reported on the floored answer.
func TestWithMinAlpha(t *testing.T) {
	sys, db := exampleSystem(t)
	q := fixture.Q1(3, 95)

	ans, plan, err := sys.Query(context.Background(), q, beas.WithAlpha(0.001), beas.WithMinAlpha(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Alpha != 0.25 || plan.Budget != int(0.25*float64(db.Size())) {
		t.Errorf("floored plan (alpha, budget) = (%g, %d), want 0.25 applied", plan.Alpha, plan.Budget)
	}
	if ans.Eta <= 0 || ans.Eta > 1 {
		t.Errorf("floored answer eta = %g, want a certified bound in (0, 1]", ans.Eta)
	}

	_, plan2, err := sys.Query(context.Background(), q, beas.WithAlpha(0.6), beas.WithMinAlpha(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Alpha != 0.6 {
		t.Errorf("above-floor alpha = %g, want 0.6 untouched", plan2.Alpha)
	}

	if _, _, err := sys.Query(context.Background(), q, beas.WithMinAlpha(2)); err == nil {
		t.Error("WithMinAlpha(2) accepted, want range error")
	}
}

// TestInternalErrorDetection: IsInternalError unwraps a contained panic
// anywhere in an error chain.
func TestInternalErrorDetection(t *testing.T) {
	var base error = &beas.InternalError{Op: "test", Value: "boom"}
	wrapped := fmt.Errorf("request failed: %w", base)
	pe, ok := beas.IsInternalError(wrapped)
	if !ok || pe.Op != "test" {
		t.Fatalf("IsInternalError = %v, %v; want the wrapped panic", pe, ok)
	}
	if _, ok := beas.IsInternalError(errors.New("plain")); ok {
		t.Error("plain error detected as internal")
	}
}
