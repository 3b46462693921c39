// Benchmarks: one per table/figure of the paper's evaluation (Fig. 6(a)–(l)),
// plus micro-benchmarks for the pipeline stages. Each figure benchmark runs
// its experiment end to end at the Tiny configuration (so `go test -bench .`
// stays fast) and logs the resulting table once; `go run ./cmd/beasbench`
// prints the paper-scale tables.
package beas_test

import (
	"context"
	"testing"

	beas "repro"
	"repro/internal/bench"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/workload"
)

func benchFigure(b *testing.B, f func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	cfg := bench.Tiny
	for i := 0; i < b.N; i++ {
		tbl, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.Format())
		}
	}
}

// BenchmarkFig6a regenerates Fig. 6(a): RC accuracy on TPCH, varying α.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, bench.Fig6a) }

// BenchmarkFig6b regenerates Fig. 6(b): RC accuracy on TFACC, varying α.
func BenchmarkFig6b(b *testing.B) { benchFigure(b, bench.Fig6b) }

// BenchmarkFig6c regenerates Fig. 6(c): RC accuracy on AIRCA, varying α.
func BenchmarkFig6c(b *testing.B) { benchFigure(b, bench.Fig6c) }

// BenchmarkFig6d regenerates Fig. 6(d): MAC accuracy on TPCH, varying α.
func BenchmarkFig6d(b *testing.B) { benchFigure(b, bench.Fig6d) }

// BenchmarkFig6e regenerates Fig. 6(e): RC accuracy on TPCH, varying |D|.
func BenchmarkFig6e(b *testing.B) { benchFigure(b, bench.Fig6e) }

// BenchmarkFig6f regenerates Fig. 6(f): MAC accuracy on TPCH, varying |D|.
func BenchmarkFig6f(b *testing.B) { benchFigure(b, bench.Fig6f) }

// BenchmarkFig6g regenerates Fig. 6(g): RC accuracy on TFACC, varying #-sel.
func BenchmarkFig6g(b *testing.B) { benchFigure(b, bench.Fig6g) }

// BenchmarkFig6h regenerates Fig. 6(h): RC accuracy on TFACC, varying #-prod.
func BenchmarkFig6h(b *testing.B) { benchFigure(b, bench.Fig6h) }

// BenchmarkFig6i regenerates Fig. 6(i): RC accuracy on TFACC per query type.
func BenchmarkFig6i(b *testing.B) { benchFigure(b, bench.Fig6i) }

// BenchmarkFig6j regenerates Fig. 6(j): α_exact for exact answers vs |D|.
func BenchmarkFig6j(b *testing.B) { benchFigure(b, bench.Fig6j) }

// BenchmarkFig6k regenerates Fig. 6(k): index sizes as multiples of |D|.
func BenchmarkFig6k(b *testing.B) { benchFigure(b, bench.Fig6k) }

// BenchmarkFig6l regenerates Fig. 6(l): efficiency and scalability on TPCH.
func BenchmarkFig6l(b *testing.B) { benchFigure(b, bench.Fig6l) }

// --- micro-benchmarks of the pipeline stages ----------------------------

func benchSystem(b *testing.B) (*beas.System, *beas.Database, beas.Query) {
	b.Helper()
	db := fixture.Example1(5, 200, 2000)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		b.Fatal(err)
	}
	return beas.Open(db, as), db, fixture.Q1(3, 95)
}

// BenchmarkPlanGeneration measures C3: α-bounded plan generation, which the
// paper reports at under 200ms per query (Exp-5); ours is far below that at
// laptop scale.
func BenchmarkPlanGeneration(b *testing.B) {
	sys, _, q := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan(context.Background(), q, beas.WithAlpha(0.01)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecution measures C4: executing the α-bounded plan.
func BenchmarkPlanExecution(b *testing.B) {
	sys, _, q := benchSystem(b)
	p, err := sys.Plan(context.Background(), q, beas.WithAlpha(0.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Execute(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLeafJoin measures executing a two-leaf plan — a union of
// two 3-atom join queries — end to end: fetch, hash join, distinct and
// union combination.
func BenchmarkMultiLeafJoin(b *testing.B) {
	sys, _, _ := benchSystem(b)
	q := &query.Union{L: fixture.Q1(1, 95), R: fixture.Q1(2, 250)}
	p, err := sys.Plan(context.Background(), q, beas.WithAlpha(0.2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Execute(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactEvaluation measures the full-scan comparator (the paper's
// PostgreSQL/MySQL stand-in) on the same query, for the Exp-5 contrast.
func BenchmarkExactEvaluation(b *testing.B) {
	_, db, q := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := beas.Exact(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessSchemaBuild measures offline index construction (C1).
func BenchmarkAccessSchemaBuild(b *testing.B) {
	d := workload.TPCH(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AccessSchema(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCMeasure measures the accuracy evaluator used by experiments.
func BenchmarkRCMeasure(b *testing.B) {
	sys, db, q := benchSystem(b)
	ans, _, err := sys.Query(context.Background(), q, beas.WithAlpha(0.05))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := beas.Accuracy(db, q, ans.Rel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinAlphaExact measures the Exp-3 search for the exact-answer
// resource ratio.
func BenchmarkMinAlphaExact(b *testing.B) {
	sys, _, _ := benchSystem(b)
	q := fixture.Q2(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.MinAlphaExact(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the SQL front end.
func BenchmarkSQLParse(b *testing.B) {
	sql := `select h.address, h.price from poi as h, friend as f, person as p
	        where f.pid = 0 and f.fid = p.pid and p.city = h.city
	        and h.type = 'hotel' and h.price <= 95`
	for i := 0; i < b.N; i++ {
		if _, err := beas.ParseSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures query generation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	d := workload.TPCH(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Workload(10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkExpr query.Expr

// BenchmarkQueryRender measures query pretty-printing (used in reports).
func BenchmarkQueryRender(b *testing.B) {
	q := fixture.Q1(3, 95)
	for i := 0; i < b.N; i++ {
		if s := beas.RenderSQL(q); s == "" {
			b.Fatal("empty")
		}
	}
	sinkExpr = q
}

// BenchmarkConcurrentQuery measures serving throughput of one shared
// System under parallel mixed traffic — the online path of the Fig. 2
// architecture under load. Repeated (query, α) pairs must be served from
// the plan cache; the benchmark fails if no hits are recorded.
func BenchmarkConcurrentQuery(b *testing.B) {
	db := fixture.Example1(5, 200, 150)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		b.Fatal(err)
	}
	sys := beas.Open(db, as)
	queries := make([]beas.Query, 8)
	for i := range queries {
		queries[i] = fixture.Q1(int64(i), 95)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i%len(queries)]
			if _, _, err := sys.Query(context.Background(), q, beas.WithAlpha(0.2)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	st := sys.PlanCacheStats()
	if b.N > 2*len(queries) && st.Hits == 0 {
		b.Fatalf("no plan-cache hits under repeated workload: %+v", st)
	}
	b.ReportMetric(st.HitRate()*100, "cache-hit-%")
}
