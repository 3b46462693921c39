// Package etaaudit is the exact-oracle differential harness for the
// system's central contract: the deterministic RC-accuracy lower bound η
// (Theorems 5/6). It replays the canonical randomized corpus and generated
// TPCH/TFACC workloads across an α grid, computes the realised RC accuracy
// of every answer against the exact oracle (internal/accuracy), and
// reports every case where accuracy < η — with the offending bound trace
// and a one-line reproduction command attached.
//
// The audit exists because a bound that is only believed is not a bound:
// the PR-6 q1 escape (docs/KNOWN_ISSUES.md) survived four PRs of
// conventional testing. Every seed the audit consumes is part of its
// Config and echoed into the Report, so any future violation is
// reproducible from its own error message.
package etaaudit

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/workload"
)

// Config pins every input of one audit sweep. The zero value is not
// runnable; start from DefaultConfig or ShortConfig.
type Config struct {
	// Datasets selects the sweeps to run, in order: "corpus" (the
	// 200-case randomized corpus over the Example 1 fixture), "edge" (the
	// deterministic edge-shape corpus over its adversarial database), and
	// "tpch" / "tfacc" (generated workloads over the synthetic datasets).
	Datasets []string
	// Alphas is the resource-ratio grid every query is answered at.
	Alphas []float64
	// CorpusSeed and CorpusCases parameterize the "corpus" sweep.
	CorpusSeed  int64
	CorpusCases int
	// FixtureSeed, FixtureN and FixtureM parameterize the Example 1
	// fixture instance the corpus runs against.
	FixtureSeed int64
	FixtureN    int
	FixtureM    int
	// DatasetSeed seeds dataset generation; TPCHScale and TFACCScale are
	// the scale factors for the "tpch" and "tfacc" sweeps.
	DatasetSeed int64
	TPCHScale   int
	TFACCScale  int
	// WorkloadQueries and WorkloadSeed parameterize the generated query
	// workload of the "tpch"/"tfacc" sweeps.
	WorkloadQueries int
	WorkloadSeed    int64
	// Only, when non-empty, restricts the audit to a single case written
	// as "dataset:index" (e.g. "tpch:3") — the reproduction filter the
	// violation messages reference.
	Only string
}

// DefaultConfig is the full audit: the whole corpus plus 14-query TPCH and
// TFACC workloads, each swept over α ∈ {0.01, 0.05, 0.3}. The seeds match
// the historical soundness tests, so the sweep subsumes them.
func DefaultConfig() Config {
	return Config{
		Datasets:        []string{"corpus", "edge", "tpch", "tfacc"},
		Alphas:          []float64{0.01, 0.05, 0.3},
		CorpusSeed:      corpus.DefaultSeed,
		CorpusCases:     corpus.DefaultCases,
		FixtureSeed:     7,
		FixtureN:        120,
		FixtureM:        80,
		DatasetSeed:     2017,
		TPCHScale:       2,
		TFACCScale:      1,
		WorkloadQueries: 14,
		WorkloadSeed:    99,
	}
}

// ShortConfig is the PR-CI budget: a quarter of the corpus and a TPCH-only
// workload sweep over two α values. Same seeds, strictly a subset of the
// full audit's coverage.
func ShortConfig() Config {
	cfg := DefaultConfig()
	cfg.Datasets = []string{"corpus", "edge", "tpch"}
	cfg.Alphas = []float64{0.01, 0.3}
	cfg.CorpusCases = 50
	cfg.WorkloadQueries = 6
	return cfg
}

// RegisterFlags binds to flags of fs every field a violation's repro command
// sets, defaulting to c's current values. -scale sets both TPCHScale and
// TFACCScale.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.Func("datasets", "comma-separated sweeps (corpus,edge,tpch,tfacc)", func(s string) error {
		c.Datasets = strings.Split(s, ",")
		return nil
	})
	fs.Func("alphas", "comma-separated alpha grid", func(s string) error {
		c.Alphas = nil
		for _, a := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
			if err != nil {
				return err
			}
			c.Alphas = append(c.Alphas, v)
		}
		return nil
	})
	fs.StringVar(&c.Only, "only", c.Only, "audit a single case, written dataset:index")
	fs.Int64Var(&c.CorpusSeed, "corpus-seed", c.CorpusSeed, "corpus generator seed")
	fs.IntVar(&c.CorpusCases, "corpus-cases", c.CorpusCases, "corpus case count")
	fs.Int64Var(&c.FixtureSeed, "fixture-seed", c.FixtureSeed, "Example 1 fixture seed")
	fs.Func("scale", "dataset scale factor of the tpch and tfacc sweeps", func(s string) error {
		n, err := strconv.Atoi(s)
		c.TPCHScale, c.TFACCScale = n, n
		return err
	})
	fs.Int64Var(&c.DatasetSeed, "dataset-seed", c.DatasetSeed, "dataset generator seed")
	fs.IntVar(&c.WorkloadQueries, "workload-queries", c.WorkloadQueries, "workload query count")
	fs.Int64Var(&c.WorkloadSeed, "workload-seed", c.WorkloadSeed, "workload generator seed")
}

// Violation is one audited case whose realised RC accuracy fell below the
// reported η — the contract breach the audit exists to catch.
type Violation struct {
	// Dataset and QueryIndex locate the case within the sweep; Query is
	// the rendered query text.
	Dataset    string
	QueryIndex int
	Query      string
	// Alpha is the resource ratio the case ran at.
	Alpha float64
	// Eta is the reported bound; Accuracy, Frel and Fcov are the realised
	// oracle measurements that contradict it.
	Eta, Accuracy, Frel, Fcov float64
	// Trace is the rendered bound derivation that produced Eta.
	Trace string
	// Repro is a one-line command that replays exactly this case.
	Repro string
}

// String formats the violation the way the audit's consumers print it.
func (v Violation) String() string {
	return fmt.Sprintf("%s q%d alpha=%g: accuracy %.4f < eta %.4f (Frel=%.4f Fcov=%.4f)\n  query: %s\n  repro: %s\n  bound trace:\n%s",
		v.Dataset, v.QueryIndex, v.Alpha, v.Accuracy, v.Eta, v.Frel, v.Fcov, v.Query, v.Repro, indent(v.Trace))
}

// indent prefixes every trace line for nested display.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n")
}

// Sweep is the outcome of one dataset's audit pass.
type Sweep struct {
	// Dataset names the pass ("corpus", "tpch", "tfacc").
	Dataset string
	// Queries is the number of distinct queries audited; Checked counts
	// (query, α) executions and Skipped counts queries the planner
	// deterministically rejects (the relaxed-join blowup guard).
	Queries, Checked, Skipped int
	// Elapsed is the pass's wall time (what beasbench reports).
	Elapsed time.Duration
}

// Report is a finished audit: the echoed configuration, per-dataset
// timings and every violation found.
type Report struct {
	// Config echoes the exact inputs, seeds included, so the report is
	// self-reproducing.
	Config Config
	// Sweeps are the per-dataset passes in execution order.
	Sweeps []Sweep
	// Checked is the total number of audited (query, α) executions.
	Checked int
	// Violations are the contract breaches, empty on a sound system.
	Violations []Violation
}

// Run executes the configured audit. It returns an error only for
// infrastructure failures (bad config, dataset build errors, ctx
// cancellation); η violations are data, reported in Report.Violations.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Datasets) == 0 || len(cfg.Alphas) == 0 {
		return nil, fmt.Errorf("etaaudit: config selects no datasets or no alphas")
	}
	rep := &Report{Config: cfg}
	for _, name := range cfg.Datasets {
		var (
			sw  Sweep
			err error
		)
		switch name {
		case "corpus":
			sw, err = runCorpus(ctx, cfg, rep)
		case "edge":
			sw, err = runEdge(ctx, cfg, rep)
		case "tpch", "tfacc":
			sw, err = runWorkload(ctx, cfg, rep, name)
		default:
			err = fmt.Errorf("etaaudit: unknown dataset %q", name)
		}
		if err != nil {
			return nil, err
		}
		rep.Sweeps = append(rep.Sweeps, sw)
		rep.Checked += sw.Checked
	}
	return rep, nil
}

// runCorpus audits the randomized corpus over the Example 1 fixture.
func runCorpus(ctx context.Context, cfg Config, rep *Report) (Sweep, error) {
	start := time.Now()
	db := fixture.Example1(cfg.FixtureSeed, cfg.FixtureN, cfg.FixtureM)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		return Sweep{}, fmt.Errorf("etaaudit: corpus fixture: %w", err)
	}
	s := core.New(db, as)
	sw := Sweep{Dataset: "corpus"}
	for ci, c := range corpus.Cases(cfg.CorpusSeed, cfg.CorpusCases) {
		if skipCase(cfg, "corpus", ci) {
			continue
		}
		checked, skipped, err := auditQuery(ctx, cfg, rep, s, "corpus", ci, c.Query)
		if err != nil {
			return Sweep{}, err
		}
		sw.Queries++
		sw.Checked += checked
		sw.Skipped += skipped
	}
	sw.Elapsed = time.Since(start)
	return sw, nil
}

// runEdge audits the deterministic edge-shape corpus (results emptied by
// EXCEPT, single-tuple relations, 64+-wide duplicate join keys) over its
// adversarial Example 1 instance.
func runEdge(ctx context.Context, cfg Config, rep *Report) (Sweep, error) {
	start := time.Now()
	db := corpus.EdgeDB()
	as, err := fixture.SchemaA0(db)
	if err != nil {
		return Sweep{}, fmt.Errorf("etaaudit: edge fixture: %w", err)
	}
	s := core.New(db, as)
	sw := Sweep{Dataset: "edge"}
	for ci, c := range corpus.EdgeCases() {
		if skipCase(cfg, "edge", ci) {
			continue
		}
		checked, skipped, err := auditQuery(ctx, cfg, rep, s, "edge", ci, c.Query)
		if err != nil {
			return Sweep{}, err
		}
		sw.Queries++
		sw.Checked += checked
		sw.Skipped += skipped
	}
	sw.Elapsed = time.Since(start)
	return sw, nil
}

// runWorkload audits a generated workload over one synthetic dataset.
func runWorkload(ctx context.Context, cfg Config, rep *Report, name string) (Sweep, error) {
	start := time.Now()
	var d *workload.Dataset
	switch name {
	case "tpch":
		d = workload.TPCH(cfg.TPCHScale, cfg.DatasetSeed)
	case "tfacc":
		d = workload.TFACC(cfg.TFACCScale, cfg.DatasetSeed)
	}
	as, err := d.AccessSchema()
	if err != nil {
		return Sweep{}, fmt.Errorf("etaaudit: %s schema: %w", name, err)
	}
	s := core.New(d.DB, as)
	qs, err := d.Workload(cfg.WorkloadQueries, cfg.WorkloadSeed)
	if err != nil {
		return Sweep{}, fmt.Errorf("etaaudit: %s workload: %w", name, err)
	}
	sw := Sweep{Dataset: name}
	for qi, q := range qs {
		if skipCase(cfg, name, qi) {
			continue
		}
		checked, skipped, err := auditQuery(ctx, cfg, rep, s, name, qi, q)
		if err != nil {
			return Sweep{}, err
		}
		sw.Queries++
		sw.Checked += checked
		sw.Skipped += skipped
	}
	sw.Elapsed = time.Since(start)
	return sw, nil
}

// auditQuery answers one query across the α grid and checks every answer
// against the exact oracle. The oracle is built lazily so queries the
// planner rejects outright never pay for exact evaluation.
func auditQuery(ctx context.Context, cfg Config, rep *Report, s *core.Scheme, dataset string, qi int, q query.Expr) (checked, skipped int, err error) {
	var ev *accuracy.Evaluator
	for _, alpha := range cfg.Alphas {
		if err := ctx.Err(); err != nil {
			return checked, skipped, err
		}
		ans, _, err := s.AnswerContext(ctx, q, core.ExecOptions{Alpha: alpha, ExplainEta: true})
		if err != nil {
			if strings.Contains(err.Error(), "exceeds limit") {
				// The relaxed-join blowup guard rejects the plan
				// deterministically; nothing was answered, nothing to audit.
				skipped++
				continue
			}
			return checked, skipped, fmt.Errorf("etaaudit: %s q%d alpha=%g: %w", dataset, qi, alpha, err)
		}
		if ev == nil {
			ev, err = accuracy.NewEvaluator(s.DB(), q)
			if err != nil {
				return checked, skipped, fmt.Errorf("etaaudit: %s q%d oracle: %w", dataset, qi, err)
			}
		}
		checked++
		r := ev.RC(ans.Rel)
		if r.Accuracy+1e-9 < ans.Eta {
			rep.Violations = append(rep.Violations, Violation{
				Dataset:    dataset,
				QueryIndex: qi,
				Query:      query.Render(q),
				Alpha:      alpha,
				Eta:        ans.Eta,
				Accuracy:   r.Accuracy,
				Frel:       r.Frel,
				Fcov:       r.Fcov,
				Trace:      ans.Trace.String(),
				Repro:      reproCommand(cfg, dataset, qi, alpha),
			})
		}
	}
	return checked, skipped, nil
}

// skipCase applies the Only filter.
func skipCase(cfg Config, dataset string, qi int) bool {
	return cfg.Only != "" && cfg.Only != fmt.Sprintf("%s:%d", dataset, qi)
}

// reproCommand builds the one-line reproduction for a violated case: the
// `beasbench etaaudit` subcommand narrowed to the single (dataset, query, α)
// triple, with every seed the sweep consumed spelled out in the flags of
// RegisterFlags.
func reproCommand(cfg Config, dataset string, qi int, alpha float64) string {
	cmd := fmt.Sprintf("go run ./cmd/beasbench etaaudit -datasets %s -only %s:%d -alphas %g",
		dataset, dataset, qi, alpha)
	switch dataset {
	case "corpus":
		return cmd + fmt.Sprintf(" -corpus-seed %d -corpus-cases %d -fixture-seed %d",
			cfg.CorpusSeed, cfg.CorpusCases, cfg.FixtureSeed)
	case "edge":
		return cmd // the edge-shape corpus has no seeds
	}
	scale := cfg.TPCHScale
	if dataset == "tfacc" {
		scale = cfg.TFACCScale
	}
	return cmd + fmt.Sprintf(" -scale %d -dataset-seed %d -workload-queries %d -workload-seed %d",
		scale, cfg.DatasetSeed, cfg.WorkloadQueries, cfg.WorkloadSeed)
}
