// Package bench reproduces the paper's evaluation (§8): one runner per
// panel of Figure 6, each emitting the same series the paper plots. The
// datasets are the laptop-scale synthetic analogues from the workload
// package; resource ratios are rescaled so that the budget α|D| covers a
// comparable number of tuples as in the paper's 100M+-row instances. It
// also holds the overload campaign that compares brownout modes at
// saturation. Performance is measured by the module in benchmark/, not here.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/accuracy"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// Config sizes an experiment run. The zero value is unusable; start from
// Default (full experiment scale) or Tiny (fast smoke scale for tests).
type Config struct {
	// Scale factors for the three datasets (TPCH's σ is swept separately
	// by the |D|-varying figures, which use TPCHScales).
	TPCHScale, AIRCAScale, TFACCScale int
	// TPCHScales is the σ sweep for Fig. 6(e), (f), (j), (l).
	TPCHScales []int
	// Alphas is the resource-ratio sweep for Fig. 6(a)–(d).
	Alphas []float64
	// FixedAlpha is the ratio used by the query-varying figures.
	FixedAlpha float64
	// Queries is the number of workload queries per dataset.
	Queries int
	// Seed drives all generators.
	Seed int64
}

// Default mirrors the paper's experimental scale, shrunk to laptop size.
var Default = Config{
	TPCHScale:  5,
	AIRCAScale: 8,
	TFACCScale: 6,
	TPCHScales: []int{5, 10, 15, 20, 25},
	Alphas:     []float64{0.005, 0.01, 0.02, 0.04, 0.08},
	FixedAlpha: 0.08,
	Queries:    12,
	Seed:       2017,
}

// Tiny is a fast configuration for tests.
var Tiny = Config{
	TPCHScale:  1,
	AIRCAScale: 1,
	TFACCScale: 1,
	TPCHScales: []int{1, 2},
	Alphas:     []float64{0.02, 0.08},
	FixedAlpha: 0.08,
	Queries:    6,
	Seed:       2017,
}

// Table is one figure panel: named series over a shared x axis.
type Table struct {
	Title  string
	XLabel string
	XVals  []string
	Order  []string
	Lines  map[string][]float64
}

func newTable(title, xlabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, Lines: map[string][]float64{}}
}

func (t *Table) addPoint(line string, v float64) {
	if _, ok := t.Lines[line]; !ok {
		t.Order = append(t.Order, line)
	}
	t.Lines[line] = append(t.Lines[line], v)
}

// Format renders the table as aligned text, one row per series.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, x := range t.XVals {
		fmt.Fprintf(&b, "%12s", x)
	}
	b.WriteByte('\n')
	for _, name := range t.Order {
		fmt.Fprintf(&b, "%-14s", name)
		for _, v := range t.Lines[name] {
			if v < 0 {
				fmt.Fprintf(&b, "%12s", "-")
			} else {
				fmt.Fprintf(&b, "%12.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runner bundles a dataset with its access schema, scheme, workload and
// per-query accuracy evaluators.
type runner struct {
	data    *workload.Dataset
	as      *access.Schema
	scheme  *core.Scheme
	queries []query.Expr
	evals   []*accuracy.Evaluator
	qcs     []baselines.QCS
	seed    int64
}

func newRunner(d *workload.Dataset, numQueries int, seed int64) (*runner, error) {
	qs, err := d.Workload(numQueries, seed)
	if err != nil {
		return nil, err
	}
	return newRunnerFor(d, nil, qs, seed)
}

// newRunnerFor wires a runner for an explicit query list, reusing a
// prebuilt access schema when given (nil builds one).
func newRunnerFor(d *workload.Dataset, as *access.Schema, qs []query.Expr, seed int64) (*runner, error) {
	if as == nil {
		var err error
		as, err = d.AccessSchema()
		if err != nil {
			return nil, err
		}
	}
	return &runner{
		data:    d,
		as:      as,
		scheme:  core.New(d.DB, as),
		queries: qs,
		evals:   make([]*accuracy.Evaluator, len(qs)),
		qcs:     baselines.QCSFromQueries(qs),
		seed:    seed,
	}, nil
}

func (r *runner) evaluator(i int) (*accuracy.Evaluator, error) {
	if r.evals[i] == nil {
		ev, err := accuracy.NewEvaluator(r.data.DB, r.queries[i])
		if err != nil {
			return nil, err
		}
		r.evals[i] = ev
	}
	return r.evals[i], nil
}

// isSPCish mirrors the paper's split: BEAS_SPC handles (aggregate) SPC
// queries, BEAS_RA the rest.
func isSPCish(e query.Expr) bool {
	switch q := e.(type) {
	case *query.SPC:
		return true
	case *query.GroupBy:
		_, ok := q.In.(*query.SPC)
		return ok
	default:
		return false
	}
}

// Series names.
const (
	lineBEASSPC    = "BEAS_SPC"
	lineBEASRA     = "BEAS_RA"
	lineBEASSPCEta = "BEAS_SPC(eta)"
	lineBEASRAEta  = "BEAS_RA(eta)"
	lineBlinkDB    = "BlinkDB"
	lineHisto      = "Histo"
	lineSampl      = "Sampl"
)

var lineOrder = []string{lineBEASSPC, lineBEASRA, lineBEASSPCEta, lineBEASRAEta, lineBlinkDB, lineHisto, lineSampl}

type avg struct {
	sum float64
	n   int
}

func (a *avg) add(v float64) { a.sum += v; a.n++ }
func (a *avg) value() float64 {
	if a.n == 0 {
		return -1
	}
	return a.sum / float64(a.n)
}

// measureAt evaluates every method on every supported query at one budget
// point, returning the average per series of the chosen measure
// ("rc" or "mac").
func (r *runner) measureAt(alpha float64, measure string, queryFilter func(int, query.Expr) bool) (map[string]float64, error) {
	budget := int(alpha * float64(r.data.DB.Size()))
	ms := []*baselines.Method{
		baselines.NewBlinkDB(r.data.DB, budget, r.qcs, r.seed),
		baselines.NewHisto(r.data.DB, budget),
		baselines.NewSampl(r.data.DB, budget, r.seed),
	}
	acc := map[string]*avg{}
	for _, name := range lineOrder {
		acc[name] = &avg{}
	}
	for i, q := range r.queries {
		if queryFilter != nil && !queryFilter(i, q) {
			continue
		}
		ev, err := r.evaluator(i)
		if err != nil {
			return nil, err
		}
		ans, _, err := r.scheme.AnswerContext(context.Background(), q, core.ExecOptions{Alpha: alpha})
		if err != nil {
			return nil, fmt.Errorf("bench: BEAS on query %d: %w", i, err)
		}
		var val float64
		if measure == "mac" {
			val = ev.MAC(ans.Rel)
		} else {
			val = ev.RC(ans.Rel).Accuracy
		}
		if isSPCish(q) {
			acc[lineBEASSPC].add(val)
			acc[lineBEASSPCEta].add(ans.Eta)
		} else {
			acc[lineBEASRA].add(val)
			acc[lineBEASRAEta].add(ans.Eta)
		}

		for _, m := range ms {
			if !m.Supports(q) {
				continue
			}
			res, err := m.Answer(q)
			if err != nil {
				return nil, fmt.Errorf("bench: %s on query %d: %w", m.Name(), i, err)
			}
			var v float64
			if measure == "mac" {
				v = ev.MAC(res)
			} else {
				v = ev.RC(res).Accuracy
			}
			acc[m.Name()].add(v)
		}
	}
	out := map[string]float64{}
	for name, a := range acc {
		out[name] = a.value()
	}
	return out, nil
}

// accuracySweep renders accuracy-vs-alpha panels (Fig. 6(a)–(d)).
func accuracySweep(d *workload.Dataset, cfg Config, measure, title string) (*Table, error) {
	r, err := newRunner(d, cfg.Queries, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := newTable(title, "alpha")
	for _, alpha := range cfg.Alphas {
		t.XVals = append(t.XVals, fmt.Sprintf("%.3f", alpha))
		vals, err := r.measureAt(alpha, measure, nil)
		if err != nil {
			return nil, err
		}
		for _, name := range lineOrder {
			t.addPoint(name, vals[name])
		}
	}
	return t, nil
}

// sizeSweep renders accuracy-vs-|D| panels (Fig. 6(e), (f)).
func sizeSweep(cfg Config, measure, title string) (*Table, error) {
	t := newTable(title, "sigma")
	for _, sf := range cfg.TPCHScales {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", sf))
		d := workload.TPCH(sf, cfg.Seed)
		r, err := newRunner(d, cfg.Queries, cfg.Seed)
		if err != nil {
			return nil, err
		}
		vals, err := r.measureAt(cfg.FixedAlpha, measure, nil)
		if err != nil {
			return nil, err
		}
		for _, name := range lineOrder {
			t.addPoint(name, vals[name])
		}
	}
	return t, nil
}

// stopwatch measures one call.
func stopwatch(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
