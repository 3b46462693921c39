package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
)

// TestScheduleInvariance is the differential guard of the two leaf
// schedules: over the same 200-case randomized corpus and α grid as the
// golden digest suite, AnswerContext — which runs the leaves of every
// affordable multi-leaf plan concurrently, each on a disjoint budget share
// — must produce answers, η, exactness, Stats and error text
// byte-identical to the same plan with its leaves run in order, each on
// the budget its predecessors left (executeInOrder). The schedule may only
// change which goroutine runs a leaf, never what it returns or what it
// costs against α·|D|. Every leaf a concurrent pass runs reads at most its
// tariff and never truncates (checkConcurrentLeaves).
func TestScheduleInvariance(t *testing.T) {
	const cases = 200
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)

	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	concurrent := 0
	for ci := 0; ci < cases; ci++ {
		q := g.Query()
		o := ExecOptions{Alpha: alphas[ci%len(alphas)]}
		gotAns, _, gotErr := s.AnswerContext(ctx, q, o)
		var wantAns *Answer
		p, wantErr := s.PlanContext(ctx, q, o)
		if wantErr == nil {
			wantAns, wantErr = executeInOrder(s, p)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: in order %v, got %v\n%s", ci, wantErr, gotErr, query.Render(q))
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("case %d: error text diverged: %q vs %q", ci, wantErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) {
			t.Fatalf("case %d: answers diverged\n%s", ci, query.Render(q))
		}
		if wantAns.Eta != gotAns.Eta || wantAns.Exact != gotAns.Exact {
			t.Fatalf("case %d: eta/exact diverged: (%v, %v) vs (%v, %v)",
				ci, wantAns.Eta, wantAns.Exact, gotAns.Eta, gotAns.Exact)
		}
		if wantAns.Stats != gotAns.Stats {
			t.Fatalf("case %d: budget consumption diverged: %+v vs %+v\n%s",
				ci, wantAns.Stats, gotAns.Stats, query.Render(q))
		}
		if checkConcurrentLeaves(t, s, p) {
			concurrent++
		}
	}
	if concurrent == 0 {
		t.Fatal("no case ran its leaves concurrently; the schedule comparison is vacuous")
	}
	t.Logf("%d concurrent passes checked against their leaf tariffs", concurrent)
}

// executeInOrder answers p with its leaves run in order, each on the
// budget its predecessors left, and assembled as ExecuteContext assembles
// them: the reference the concurrent schedule is held to.
func executeInOrder(s *Scheme, p *Plan) (*Answer, error) {
	ctx := context.Background()
	results, err := s.runInOrder(ctx, p, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return s.assemble(ctx, p, ExecOptions{}, results)
}

// checkConcurrentLeaves runs p's leaves on the concurrent schedule, when p
// takes it (more than one leaf, total tariff within budget), and reports
// whether it did. Each leaf's budget share is at least its tariff, so a
// leaf that reads at most its tariff never truncates: a concurrent pass is
// assembled as it is, with no in-order re-run behind it. The check fails
// the test on any leaf that reads more than its tariff or truncates.
func checkConcurrentLeaves(t *testing.T, s *Scheme, p *Plan) bool {
	t.Helper()
	if p.shares == nil {
		return false
	}
	results, err := s.runConcurrent(context.Background(), p, ExecOptions{})
	if err != nil {
		t.Fatalf("concurrent leaves: %v", err)
	}
	for li, l := range p.Leaves {
		st := results[li].Stats
		if tariff := l.Bounded.Tariff(); st.Accessed > tariff || st.Truncated {
			t.Fatalf("concurrent leaf %d read %d tuples (truncated %v) against a tariff of %d\n%s",
				li, st.Accessed, st.Truncated, tariff, query.Render(l.SPC))
		}
	}
	return true
}
