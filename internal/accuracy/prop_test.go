package accuracy

// Property tests for the RC oracle over the randomized corpus: the audit
// subsystem (internal/etaaudit) trusts this package to measure realised
// accuracy, so the measure itself must satisfy its defining properties on
// arbitrary queries and answer sets — not just the hand-built examples of
// accuracy_test.go.

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/relation"
)

// TestRCPropertiesOverCorpus checks, for every corpus query answered by
// the real system at its case α:
//
//  1. Range: Accuracy, Frel and Fcov all lie in [0, 1].
//  2. Perfection: RC of the exact answer set is 1 in every component.
//  3. Monotonicity under row removal from the reported answer: coverage
//     (Fcov) never increases and relevance (Frel) never decreases as rows
//     are removed — fewer reported rows can only cover Q(D) worse, and
//     the worst-row relevance max can only shrink. (Accuracy itself, the
//     min of the two, is deliberately not monotone.)
func TestRCPropertiesOverCorpus(t *testing.T) {
	const cases = 80
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(db, as)
	rng := rand.New(rand.NewSource(11))

	checked := 0
	for ci, c := range corpus.Cases(42, cases) {
		ans, _, err := s.AnswerContext(context.Background(), c.Query, core.ExecOptions{Alpha: c.Alpha})
		if err != nil {
			if strings.Contains(err.Error(), "exceeds limit") {
				continue // relaxed-join blowup guard; nothing to measure
			}
			t.Fatalf("case %d: %v", ci, err)
		}
		ev, err := NewEvaluator(db, c.Query)
		if err != nil {
			t.Fatalf("case %d: evaluator: %v", ci, err)
		}
		checked++

		if rep := ev.RC(ev.Exact); rep.Accuracy != 1 || rep.Frel != 1 || rep.Fcov != 1 {
			t.Errorf("case %d: RC(exact) = %+v, want all components 1", ci, rep)
		}

		rep := ev.RC(ans.Rel)
		checkRange(t, ci, "system answer", rep)

		// Remove up to five random rows, re-measuring after each removal.
		cur := &relation.Relation{Schema: ans.Rel.Schema, Tuples: append([]relation.Tuple(nil), ans.Rel.Tuples...)}
		prev := rep
		for step := 0; step < 5 && cur.Len() > 0; step++ {
			i := rng.Intn(cur.Len())
			cur.Tuples = append(cur.Tuples[:i], cur.Tuples[i+1:]...)
			r := ev.RC(cur)
			checkRange(t, ci, "after removal", r)
			if r.Fcov > prev.Fcov+1e-12 {
				t.Errorf("case %d: Fcov rose %.6f -> %.6f after removing a row", ci, prev.Fcov, r.Fcov)
			}
			if r.Frel < prev.Frel-1e-12 {
				t.Errorf("case %d: Frel fell %.6f -> %.6f after removing a row", ci, prev.Frel, r.Frel)
			}
			prev = r
		}
	}
	if checked < cases/2 {
		t.Fatalf("only %d/%d corpus cases were measurable", checked, cases)
	}
	t.Logf("%d cases checked", checked)
}

// checkRange asserts every RC component lies in [0, 1].
func checkRange(t *testing.T, ci int, what string, rep Report) {
	t.Helper()
	for _, v := range []struct {
		name string
		val  float64
	}{{"Accuracy", rep.Accuracy}, {"Frel", rep.Frel}, {"Fcov", rep.Fcov}} {
		if v.val < 0 || v.val > 1 {
			t.Errorf("case %d (%s): %s = %g outside [0,1]", ci, what, v.name, v.val)
		}
	}
}
