package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// Fig6a reproduces Fig. 6(a): RC accuracy on TPCH while varying α.
func Fig6a(cfg Config) (*Table, error) {
	return accuracySweep(workload.TPCH(cfg.TPCHScale, cfg.Seed), cfg, "rc",
		"Fig 6(a) TPCH: RC accuracy, varying alpha")
}

// Fig6b reproduces Fig. 6(b): RC accuracy on TFACC while varying α.
func Fig6b(cfg Config) (*Table, error) {
	return accuracySweep(workload.TFACC(cfg.TFACCScale, cfg.Seed), cfg, "rc",
		"Fig 6(b) TFACC: RC accuracy, varying alpha")
}

// Fig6c reproduces Fig. 6(c): RC accuracy on AIRCA while varying α.
func Fig6c(cfg Config) (*Table, error) {
	return accuracySweep(workload.AIRCA(cfg.AIRCAScale, cfg.Seed), cfg, "rc",
		"Fig 6(c) AIRCA: RC accuracy, varying alpha")
}

// Fig6d reproduces Fig. 6(d): MAC accuracy on TPCH while varying α.
func Fig6d(cfg Config) (*Table, error) {
	return accuracySweep(workload.TPCH(cfg.TPCHScale, cfg.Seed), cfg, "mac",
		"Fig 6(d) TPCH: MAC accuracy, varying alpha")
}

// Fig6e reproduces Fig. 6(e): RC accuracy on TPCH while varying |D| (σ).
func Fig6e(cfg Config) (*Table, error) {
	return sizeSweep(cfg, "rc", "Fig 6(e) TPCH: RC accuracy, varying |D| (sigma)")
}

// Fig6f reproduces Fig. 6(f): MAC accuracy on TPCH while varying |D| (σ).
func Fig6f(cfg Config) (*Table, error) {
	return sizeSweep(cfg, "mac", "Fig 6(f) TPCH: MAC accuracy, varying |D| (sigma)")
}

// querySweep renders accuracy panels over generated query knobs on TFACC
// (Fig. 6(g)–(i)), generating a small batch of queries per x value.
func querySweep(cfg Config, title, xlabel string, xs []string, spec func(xi, j int) workload.Spec) (*Table, error) {
	d := workload.TFACC(cfg.TFACCScale, cfg.Seed)
	as, err := d.AccessSchema()
	if err != nil {
		return nil, err
	}
	t := newTable(title, xlabel)
	batch := max(2, cfg.Queries)
	for xi, xv := range xs {
		t.XVals = append(t.XVals, xv)
		var qs []query.Expr
		for j := 0; j < batch; j++ {
			q, err := d.Generate(spec(xi, j), cfg.Seed+int64(xi*1000+j)*7919)
			if err != nil {
				return nil, err
			}
			qs = append(qs, q)
		}
		r, err := newRunnerFor(d, as, qs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		vals, err := r.measureAt(cfg.FixedAlpha, "rc", nil)
		if err != nil {
			return nil, err
		}
		for _, name := range lineOrder {
			t.addPoint(name, vals[name])
		}
	}
	return t, nil
}

// Fig6g reproduces Fig. 6(g): RC accuracy on TFACC while varying #-sel.
func Fig6g(cfg Config) (*Table, error) {
	xs := []string{"3", "4", "5", "6", "7"}
	return querySweep(cfg, "Fig 6(g) TFACC: RC accuracy, varying #-sel", "#-sel", xs,
		func(xi, j int) workload.Spec {
			cls := []workload.Class{workload.GenSPC, workload.GenRA, workload.GenAggSPC}[j%3]
			return workload.Spec{Class: cls, NSel: 3 + xi, NProd: 1, NDiff: j % 2, Agg: query.AggSum}
		})
}

// Fig6h reproduces Fig. 6(h): RC accuracy on TFACC while varying #-prod.
func Fig6h(cfg Config) (*Table, error) {
	xs := []string{"0", "1", "2", "3", "4"}
	return querySweep(cfg, "Fig 6(h) TFACC: RC accuracy, varying #-prod", "#-prod", xs,
		func(xi, j int) workload.Spec {
			cls := []workload.Class{workload.GenSPC, workload.GenRA, workload.GenAggSPC}[j%3]
			return workload.Spec{Class: cls, NSel: 4, NProd: xi, NDiff: j % 2, Agg: query.AggCount}
		})
}

// Fig6i reproduces Fig. 6(i): RC accuracy on TFACC per query type
// (SPC, RA, aggregate SPC).
func Fig6i(cfg Config) (*Table, error) {
	xs := []string{"SPC", "RA", "agg(SPC)"}
	return querySweep(cfg, "Fig 6(i) TFACC: RC accuracy, varying query type", "type", xs,
		func(xi, j int) workload.Spec {
			cls := []workload.Class{workload.GenSPC, workload.GenRA, workload.GenAggSPC}[xi]
			agg := []query.AggKind{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}[j%5]
			return workload.Spec{Class: cls, NSel: 4, NProd: 1 + j%2, NDiff: 1 + j%2, Agg: agg}
		})
}

// Fig6j reproduces Fig. 6(j): the average resource ratio α_exact at which
// BEAS finds exact answers, varying |D| (σ), split into SPC and RA queries.
func Fig6j(cfg Config) (*Table, error) {
	t := newTable("Fig 6(j) TPCH: alpha_exact for exact answers, varying |D| (sigma)", "sigma")
	for _, sf := range cfg.TPCHScales {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", sf))
		d := workload.TPCH(sf, cfg.Seed)
		r, err := newRunner(d, cfg.Queries, cfg.Seed)
		if err != nil {
			return nil, err
		}
		spcAvg, raAvg := &avg{}, &avg{}
		for _, q := range r.queries {
			a, err := r.scheme.MinAlphaExact(q)
			if err != nil {
				continue // no exact plan for this query; skip like the paper's averages
			}
			if isSPCish(q) {
				spcAvg.add(a)
			} else {
				raAvg.add(a)
			}
		}
		t.addPoint("SPC", spcAvg.value())
		t.addPoint("RA", raAvg.value())
	}
	return t, nil
}

// Fig6k reproduces Fig. 6(k): index sizes as multiples of |D| per dataset —
// the full access-schema index, the part actually used by the workload's
// plans, and the access-constraint part.
func Fig6k(cfg Config) (*Table, error) {
	t := newTable("Fig 6(k) index size (x|D|)", "dataset")
	for _, d := range []*workload.Dataset{
		workload.AIRCA(cfg.AIRCAScale, cfg.Seed),
		workload.TFACC(cfg.TFACCScale, cfg.Seed),
		workload.TPCH(cfg.TPCHScale, cfg.Seed),
	} {
		t.XVals = append(t.XVals, d.Name)
		r, err := newRunner(d, cfg.Queries, cfg.Seed)
		if err != nil {
			return nil, err
		}
		size := float64(d.DB.Size())
		t.addPoint("total", float64(r.as.IndexSize())/size)
		used, err := r.usedLadderIndexSize(cfg.FixedAlpha)
		if err != nil {
			return nil, err
		}
		t.addPoint("used", float64(used)/size)
		t.addPoint("constraints", float64(r.as.ConstraintIndexSize())/size)
	}
	return t, nil
}

// usedLadderIndexSize totals the index sizes of the ladders that the
// workload's plans actually reference at the given ratio.
func (r *runner) usedLadderIndexSize(alpha float64) (int, error) {
	used := map[interface{}]int{}
	for _, q := range r.queries {
		p, err := r.scheme.PlanContext(context.Background(), q, core.ExecOptions{Alpha: alpha})
		if err != nil {
			return 0, err
		}
		for _, leaf := range p.Leaves {
			for _, st := range leaf.Bounded.Chase.Steps {
				used[st.Ladder] = st.Ladder.IndexSize()
			}
		}
	}
	total := 0
	for _, sz := range used {
		total += sz
	}
	return total, nil
}

// Fig6l reproduces Fig. 6(l): efficiency and scalability on TPCH — average
// plan-generation time, α-bounded plan execution time, and the exact
// full-evaluation comparator (the paper's PostgreSQL/MySQL stand-in),
// varying |D| (σ). Values are milliseconds.
func Fig6l(cfg Config) (*Table, error) {
	t := newTable("Fig 6(l) TPCH: efficiency (ms), varying |D| (sigma)", "sigma")
	for _, sf := range cfg.TPCHScales {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", sf))
		d := workload.TPCH(sf, cfg.Seed)
		r, err := newRunner(d, cfg.Queries, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var gen, exec, exact time.Duration
		n := 0
		for _, q := range r.queries {
			p, err := r.scheme.PlanContext(context.Background(), q, core.ExecOptions{Alpha: cfg.FixedAlpha})
			if err != nil {
				return nil, err
			}
			gen += p.GenTime
			dt, err := stopwatch(func() error {
				_, err := r.scheme.ExecuteContext(context.Background(), p, core.ExecOptions{})
				return err
			})
			if err != nil {
				return nil, err
			}
			exec += dt
			dt, err = stopwatch(func() error {
				_, err := query.Evaluate(d.DB, q)
				return err
			})
			if err != nil {
				return nil, err
			}
			exact += dt
			n++
		}
		ms := func(total time.Duration) float64 {
			return float64(total.Microseconds()) / float64(n) / 1000
		}
		t.addPoint("plan-gen", ms(gen))
		t.addPoint("plan-exec", ms(exec))
		t.addPoint("full-eval", ms(exact))
	}
	return t, nil
}

// Figure is one panel of Figure 6 with its runner.
type Figure struct {
	// ID is the panel's name, "6a" through "6l".
	ID  string
	Run func(Config) (*Table, error)
}

// Figures lists every panel in the paper's order.
var Figures = []Figure{
	{"6a", Fig6a}, {"6b", Fig6b}, {"6c", Fig6c}, {"6d", Fig6d},
	{"6e", Fig6e}, {"6f", Fig6f}, {"6g", Fig6g}, {"6h", Fig6h},
	{"6i", Fig6i}, {"6j", Fig6j}, {"6k", Fig6k}, {"6l", Fig6l},
}
