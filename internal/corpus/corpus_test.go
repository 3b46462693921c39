package corpus_test

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/query"
	"repro/internal/sqlparser"
)

// The golden digest suites replay the corpus by seed and record only
// hashes, so the corpus itself must be a pure function of the seed: two
// generators seeded alike hand out the same query stream.
func TestGeneratorDeterministic(t *testing.T) {
	a, b := corpus.NewGenerator(42), corpus.NewGenerator(42)
	for i := 0; i < corpus.DefaultCases; i++ {
		if ra, rb := query.Render(a.Query()), query.Render(b.Query()); ra != rb {
			t.Fatalf("query %d: %q != %q", i, ra, rb)
		}
		if ra, rb := query.Render(a.SPC()), query.Render(b.SPC()); ra != rb {
			t.Fatalf("spc %d: %q != %q", i, ra, rb)
		}
	}
	other := corpus.NewGenerator(43)
	same := 0
	c := corpus.NewGenerator(42)
	for i := 0; i < 20; i++ {
		if query.Render(c.Query()) == query.Render(other.Query()) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("seeds 42 and 43 generate the same stream; the seed is ignored")
	}
}

// Cases pairs the generator's stream with the alpha rotation, and Default
// is the canonical 200 cases of seed 42: both stable call to call.
func TestCasesStable(t *testing.T) {
	first, second := corpus.Cases(corpus.DefaultSeed, corpus.DefaultCases), corpus.Default()
	if len(first) != corpus.DefaultCases || len(second) != corpus.DefaultCases {
		t.Fatalf("got %d and %d cases, want %d", len(first), len(second), corpus.DefaultCases)
	}
	g := corpus.NewGenerator(corpus.DefaultSeed)
	alphas := map[float64]bool{}
	for i := range first {
		r := query.Render(first[i].Query)
		if r != query.Render(second[i].Query) || first[i].Alpha != second[i].Alpha {
			t.Fatalf("case %d differs between two calls", i)
		}
		if r != query.Render(g.Query()) {
			t.Fatalf("case %d is not the generator's query %d", i, i)
		}
		alphas[first[i].Alpha] = true
	}
	if len(alphas) != 3 {
		t.Fatalf("alpha rotation has %d values, want 3", len(alphas))
	}
	// A shorter prefix is a prefix: n only truncates the stream.
	for i, c := range corpus.Cases(corpus.DefaultSeed, 10) {
		if query.Render(c.Query) != query.Render(first[i].Query) || c.Alpha != first[i].Alpha {
			t.Fatalf("Cases(seed, 10)[%d] differs from Cases(seed, 200)[%d]", i, i)
		}
	}
}

// Every edge case must render to SQL that parses back to the same query:
// the rendered text is the plan-cache key and the digest input, so a case
// that did not survive the round trip would be pinned under a name that
// means something else. The one shape SQL cannot spell — GROUP BY over a
// set operation, which Render writes in algebraic gpBy(...) form — must
// still render stably and distinctly from every other case.
func TestEdgeCasesRoundTrip(t *testing.T) {
	cases := corpus.EdgeCases()
	if len(cases) == 0 {
		t.Fatal("empty edge corpus")
	}
	seen := map[string]int{}
	for i, c := range cases {
		sql := query.Render(c.Query)
		if j, dup := seen[sql]; dup {
			t.Errorf("edge cases %d and %d render identically: %s", j, i, sql)
		}
		seen[sql] = i
		if gb, ok := c.Query.(*query.GroupBy); ok {
			if _, spc := gb.In.(*query.SPC); !spc {
				if _, err := sqlparser.Parse(sql); err == nil {
					t.Errorf("edge case %d: algebraic render parsed as SQL: %s", i, sql)
				}
				continue
			}
		}
		back, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("edge case %d: rendered SQL does not parse: %v\n%s", i, err, sql)
		}
		if !reflect.DeepEqual(back, c.Query) {
			t.Errorf("edge case %d: parsed query differs from the case\n%s", i, sql)
		}
		if again := query.Render(back); again != sql {
			t.Errorf("edge case %d: render not stable:\n%s\n%s", i, sql, again)
		}
		if c.Alpha <= 0 || c.Alpha > 1 {
			t.Errorf("edge case %d: alpha %g outside (0, 1]", i, c.Alpha)
		}
	}
	for i, c := range corpus.EdgeCases() {
		if query.Render(c.Query) != query.Render(cases[i].Query) || c.Alpha != cases[i].Alpha {
			t.Fatalf("edge case %d differs between two calls", i)
		}
	}
}
