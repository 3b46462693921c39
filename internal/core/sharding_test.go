package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
)

// TestShardCountInvariance is the tentpole differential guard of the
// partition-parallel storage layer: over the same 200-case randomized
// corpus as the golden digest suite, systems whose ladders are partitioned
// N ∈ {1, 2, 4, 8} ways — executing with an 8-worker pool, so leaves run
// in parallel and any batch of 64+ X-values fans out across shards — must
// produce answers, η, exactness, budget consumption and truncation
// byte-identical to a single-shard, single-worker system. Sharding may only
// change which core resolves a fetch, never what it returns or what it
// costs against α·|D|.
func TestShardCountInvariance(t *testing.T) {
	const cases = 200
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)

	// Reference: single shard, strictly sequential execution.
	refAS, err := fixture.SchemaA0Sharded(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewWithOptions(db, refAS, Options{Workers: 1})

	type sys struct {
		n int
		s *Scheme
	}
	var systems []sys
	for _, n := range []int{1, 2, 4, 8} {
		as, err := fixture.SchemaA0Sharded(db, n)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys{n, NewWithOptions(db, as, Options{Workers: 8})})
	}

	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	for ci := 0; ci < cases; ci++ {
		q := g.Query()
		alpha := alphas[ci%len(alphas)]
		wantAns, _, wantErr := ref.AnswerContext(ctx, q, ExecOptions{Alpha: alpha})
		for _, sc := range systems {
			gotAns, _, gotErr := sc.s.AnswerContext(ctx, q, ExecOptions{Alpha: alpha})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("case %d shards=%d: error mismatch: ref %v, got %v\n%s",
					ci, sc.n, wantErr, gotErr, query.Render(q))
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("case %d shards=%d: error text diverged: %q vs %q", ci, sc.n, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) {
				t.Fatalf("case %d shards=%d: answers diverged\n%s", ci, sc.n, query.Render(q))
			}
			if wantAns.Eta != gotAns.Eta || wantAns.Exact != gotAns.Exact {
				t.Fatalf("case %d shards=%d: eta/exact diverged: (%v, %v) vs (%v, %v)",
					ci, sc.n, wantAns.Eta, wantAns.Exact, gotAns.Eta, gotAns.Exact)
			}
			if wantAns.Stats.Accessed != gotAns.Stats.Accessed || wantAns.Stats.Truncated != gotAns.Stats.Truncated {
				t.Fatalf("case %d shards=%d: budget consumption diverged: accessed %d/%v vs %d/%v\n%s",
					ci, sc.n, wantAns.Stats.Accessed, wantAns.Stats.Truncated,
					gotAns.Stats.Accessed, gotAns.Stats.Truncated, query.Render(q))
			}
		}
	}
}
