package core

// Observability adversity tests: the span tree must stay balanced — every
// opened span ended, Unclosed() == 0 — on the paths where executions do
// NOT run to completion. Spans are closed by defers at each layer, so a
// mid-flight cancellation or a panicking evaluator unwinding through the
// guard must leave the same balanced tree a clean run does; an open span
// in a returned trace means a missing defer somewhere in the stack.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fixture"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestTraceBalancedUnderCancellation expires a countdown context at many
// points inside one traced execution and asserts the trace comes back
// balanced each time: the root is ended and no span in the tree is open.
func TestTraceBalancedUnderCancellation(t *testing.T) {
	s, q, opt := cancelFixture(t)

	// Reference: how many checkpoints one uncancelled run crosses, and
	// that a clean traced run yields a balanced, non-trivial tree.
	probe := &countdownCtx{fuse: 1 << 30}
	refOpt := opt
	refOpt.Trace = obs.NewTrace("query")
	if _, _, err := s.AnswerContext(probe, q, refOpt); err != nil {
		t.Fatal(err)
	}
	total := probe.spent(1 << 30)
	root := refOpt.Trace.Root()
	if root.Count() < 4 {
		t.Fatalf("clean traced run produced only %d spans; fixture too small", root.Count())
	}
	if n := root.Unclosed(); n != 0 || !root.Ended() {
		t.Fatalf("clean run: %d unclosed spans (root ended=%v)\n%s", n, root.Ended(), refOpt.Trace)
	}

	for _, fuse := range []int{1, 2, total / 4, total / 2, total - 1} {
		tr := obs.NewTrace("query")
		copt := opt
		copt.Trace = tr
		ctx := &countdownCtx{fuse: fuse}
		if _, _, err := s.AnswerContext(ctx, q, copt); !errors.Is(err, context.Canceled) {
			t.Fatalf("fuse %d/%d: err = %v, want context.Canceled", fuse, total, err)
		}
		if n := tr.Root().Unclosed(); n != 0 || !tr.Root().Ended() {
			t.Errorf("fuse %d/%d: %d unclosed spans (root ended=%v)\n%s",
				fuse, total, n, tr.Root().Ended(), tr)
		}
	}
}

// TestTraceBalancedUnderPanic forces the evaluator to panic inside both
// leaf schedules of a traced execution — a single leaf run in order, and
// an affordable union whose leaves run concurrently: the guard converts
// the panic to a *guard.PanicError, and the unwinding must still close
// every span it opened.
func TestTraceBalancedUnderPanic(t *testing.T) {
	s, _ := setup(t)
	withPanicHook(t, func() { panic("forced evaluator failure") })

	cases := []struct {
		name string
		q    query.Expr
		opt  ExecOptions
	}{
		{"seq", fixture.Q1(3, 95), ExecOptions{Alpha: 0.5}},
		{"par", &query.Union{L: fixture.Q1(3, 95), R: fixture.Q1(5, 120)}, ExecOptions{Alpha: 0.9}},
	}
	for _, c := range cases {
		tr := obs.NewTrace("query")
		c.opt.Trace = tr
		_, _, err := s.AnswerContext(context.Background(), c.q, c.opt)
		if _, ok := guard.AsPanic(err); !ok {
			t.Fatalf("%s: err = %v, want contained *guard.PanicError", c.name, err)
		}
		if n := tr.Root().Unclosed(); n != 0 || !tr.Root().Ended() {
			t.Errorf("%s: %d unclosed spans after contained panic (root ended=%v)\n%s",
				c.name, n, tr.Root().Ended(), tr)
		}
		// The leaf span that hosted the panic is present (closed by its
		// defer), so the trace shows where the failure happened, and its
		// mode names the schedule the case is meant to reach.
		leaf := tr.Root().Find("leaf")
		if leaf == nil {
			t.Fatalf("%s: trace lacks the leaf span that panicked\n%s", c.name, tr)
		}
		if mode := spanAttr(leaf, "mode"); mode != c.name {
			t.Errorf("%s: leaf ran with mode %v\n%s", c.name, mode, tr)
		}
	}
}

// spanAttr returns the value of the span's attribute key, or nil.
func spanAttr(sp *obs.Span, key string) any {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}
