package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
)

// TestWorkerCountInvariance is the differential guard of the parallel-leaf
// executor: over the same 200-case randomized corpus as the golden digest
// suite, systems running with a 2- and an 8-worker pool — so multi-leaf
// plans whose tariff fits the budget run their leaves in parallel on
// disjoint budget shares — must produce answers, η, exactness, budget
// consumption, truncation and error text byte-identical to a strictly
// sequential (Workers: 1) system. The worker count may only change which
// goroutine runs a leaf, never what it returns or what it costs against
// α·|D|. Every leaf a parallel pass runs reads at most its tariff and never
// truncates (checkParallelLeaves).
func TestWorkerCountInvariance(t *testing.T) {
	const cases = 200
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewWithOptions(db, as, Options{Workers: 1})

	type sys struct {
		n int
		s *Scheme
	}
	var systems []sys
	for _, n := range []int{2, 8} {
		systems = append(systems, sys{n, NewWithOptions(db, as, Options{Workers: n})})
	}

	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	parallel := 0
	for ci := 0; ci < cases; ci++ {
		q := g.Query()
		alpha := alphas[ci%len(alphas)]
		wantAns, _, wantErr := ref.AnswerContext(ctx, q, ExecOptions{Alpha: alpha})
		for _, sc := range systems {
			gotAns, p, gotErr := sc.s.AnswerContext(ctx, q, ExecOptions{Alpha: alpha})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("case %d workers=%d: error mismatch: ref %v, got %v\n%s",
					ci, sc.n, wantErr, gotErr, query.Render(q))
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("case %d workers=%d: error text diverged: %q vs %q", ci, sc.n, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) {
				t.Fatalf("case %d workers=%d: answers diverged\n%s", ci, sc.n, query.Render(q))
			}
			if wantAns.Eta != gotAns.Eta || wantAns.Exact != gotAns.Exact {
				t.Fatalf("case %d workers=%d: eta/exact diverged: (%v, %v) vs (%v, %v)",
					ci, sc.n, wantAns.Eta, wantAns.Exact, gotAns.Eta, gotAns.Exact)
			}
			if wantAns.Stats.Accessed != gotAns.Stats.Accessed || wantAns.Stats.Truncated != gotAns.Stats.Truncated {
				t.Fatalf("case %d workers=%d: budget consumption diverged: accessed %d/%v vs %d/%v\n%s",
					ci, sc.n, wantAns.Stats.Accessed, wantAns.Stats.Truncated,
					gotAns.Stats.Accessed, gotAns.Stats.Truncated, query.Render(q))
			}
			if checkParallelLeaves(t, sc.s, p, sc.n) {
				parallel++
			}
		}
	}
	if parallel == 0 {
		t.Fatal("no case ran its leaves in parallel; the leaf-tariff check is vacuous")
	}
	t.Logf("%d parallel passes checked against their leaf tariffs", parallel)
}

// checkParallelLeaves runs p's leaves on the parallel path with the given
// pool, when p takes that path (more than one worker and leaf, total tariff
// within budget), and reports whether it did. Each leaf's budget share is
// at least its tariff, so a leaf that reads at most its tariff never
// truncates: a parallel pass is assembled as it is, with no sequential
// re-run behind it. The check fails the test on any leaf that reads more
// than its tariff or truncates.
func checkParallelLeaves(t *testing.T, s *Scheme, p *Plan, workers int) bool {
	t.Helper()
	if workers <= 1 || len(p.Leaves) <= 1 || s.totalTariff(p) > p.Budget {
		return false
	}
	results, _, err := s.executeLeavesParallel(context.Background(), p, ExecOptions{}, workers)
	if err != nil {
		t.Fatalf("parallel leaves: %v", err)
	}
	for li, l := range p.Leaves {
		st := results[l.SPC].res.Stats
		if tariff := l.Bounded.Tariff(); st.Accessed > tariff || st.Truncated {
			t.Fatalf("parallel leaf %d read %d tuples (truncated %v) against a tariff of %d\n%s",
				li, st.Accessed, st.Truncated, tariff, query.Render(l.SPC))
		}
	}
	return true
}
