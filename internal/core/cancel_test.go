package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/query"
)

// countdownCtx is a context.Context that reports itself cancelled after its
// Err method has been consulted `fuse` times. It makes mid-flight
// cancellation deterministic: the executor consults ctx.Err() at every
// cooperative cancellation point (step boundaries, every cancelStride
// enumeration visits, batch fan-out, join boundaries), so expiring the fuse
// at check k proves the call aborts at check k — no timers, no races on
// wall-clock speed. extra counts the consultations after expiry: a bound on
// it is a bound on how much work survives the cancellation.
type countdownCtx struct {
	mu    sync.Mutex
	fuse  int
	extra int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Done returns nil: the executor's cancellation points poll Err, and a nil
// channel keeps any stray select blocked rather than spuriously woken.
func (c *countdownCtx) Done() <-chan struct{} { return nil }

func (c *countdownCtx) Value(any) any { return nil }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fuse <= 0 {
		c.extra++
		return context.Canceled
	}
	c.fuse--
	return nil
}

// calls reports how many times Err was consulted before expiry.
func (c *countdownCtx) spent(initial int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return initial - c.fuse
}

// cancelFixture builds a multi-leaf, fetch-heavy workload whose execution
// crosses many cancellation checkpoints: a union of two 3-atom join queries
// at alpha = 1, an affordable plan whose leaves run concurrently.
func cancelFixture(t *testing.T) (*Scheme, query.Expr, ExecOptions) {
	t.Helper()
	db := fixture.Example1(5, 800, 2000)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	q := &query.Union{L: fixture.Q1(1, 95), R: fixture.Q1(2, 250)}
	wantSchedule(t, s, q, ExecOptions{Alpha: 1.0}, true)
	return s, q, ExecOptions{Alpha: 1.0}
}

// TestCancelledContextFailsFast: a context cancelled before the call starts
// must return ctx.Err() without executing anything.
func TestCancelledContextFailsFast(t *testing.T) {
	s, q, opt := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.AnswerContext(ctx, q, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AnswerContext: err = %v, want context.Canceled", err)
	}
	p, err := s.PlanContext(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteContext(ctx, p, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ExecuteContext: err = %v, want context.Canceled", err)
	}
}

// TestMidExecutionCancellation expires a countdown context at many points
// inside one execution and asserts three things at each: the call returns
// context.Canceled (not a partial answer), it stops within a bounded number
// of checkpoint consultations after expiry (the work after cancellation is
// bounded by the checkpoint stride, not by the remaining budget), and the
// scheme — plan cache, ladders, leaf goroutines — stays fully usable:
// a follow-up uncancelled call returns the reference answer byte for byte.
func TestMidExecutionCancellation(t *testing.T) {
	s, q, opt := cancelFixture(t)

	// Reference run, and the total number of checkpoint consultations one
	// uncancelled execution performs.
	probe := &countdownCtx{fuse: 1 << 30}
	wantAns, _, err := s.AnswerContext(probe, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	total := probe.spent(1 << 30)
	if total < 20 {
		t.Fatalf("workload crosses only %d cancellation checkpoints; too small to exercise mid-flight cancel", total)
	}

	// The abort bound: after expiry every live leaf notices at its next
	// consultation, and the unwinding layers (leaf loop, assemble) observe
	// once more each. Far below `total`, and independent of the budget.
	const maxExtraChecks = 64

	for _, fuse := range []int{1, 2, total / 4, total / 2, total - 1} {
		ctx := &countdownCtx{fuse: fuse}
		ans, _, err := s.AnswerContext(ctx, q, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fuse %d/%d: err = %v (ans=%v), want context.Canceled", fuse, total, err, ans)
		}
		ctx.mu.Lock()
		extra := ctx.extra
		ctx.mu.Unlock()
		if extra > maxExtraChecks {
			t.Errorf("fuse %d/%d: %d checkpoint consultations after expiry, want <= %d",
				fuse, total, extra, maxExtraChecks)
		}
	}

	// The scheme survives any number of aborted calls: same query again,
	// uncancelled, must reproduce the reference answer exactly and hit the
	// plan cache.
	gotAns, gotPlan, err := s.AnswerContext(context.Background(), q, opt)
	if err != nil {
		t.Fatalf("post-cancellation query: %v", err)
	}
	if !gotPlan.CacheHit {
		t.Error("post-cancellation query missed the plan cache")
	}
	if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) ||
		wantAns.Eta != gotAns.Eta || wantAns.Stats != gotAns.Stats {
		t.Error("post-cancellation answer diverged from the reference run")
	}
}

// TestCancellationUnderTimer is the wall-clock integration check: a real
// context cancelled mid-execution aborts with context.Canceled well before
// an uncancelled run would have finished. Timer-based, so it only asserts
// the error identity (the countdown test pins the promptness bound).
func TestCancellationUnderTimer(t *testing.T) {
	s, q, opt := cancelFixture(t)
	// Warm the plan cache so the timed run is execution only.
	if _, _, err := s.AnswerContext(context.Background(), q, opt); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.AnswerContext(ctx, q, opt)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// nil means execution won the race with cancel — possible on a
		// fast machine, and not a correctness failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled execution did not return")
	}
}
