// Command beasbench regenerates the paper's evaluation (Figure 6, panels
// (a)–(l)) on the synthetic datasets, printing one table per panel, and runs
// the tracked performance harness that emits the checked-in BENCH_*.json
// perf trajectory.
//
// Usage:
//
//	beasbench                      # every figure at the default scale
//	beasbench -fig 6a,6d           # selected figures
//	beasbench -tiny                # fast smoke run
//	beasbench -perf -out B.json    # run the perf harness, write/append JSON
//	beasbench -perf -label after   # label the run inside the report
//	beasbench -cluster             # cluster RPC latency sweep (1/2/3 nodes)
//	beasbench -persist             # cold build vs warm snapshot load
//	beasbench -etaaudit            # eta-soundness audit sweep (exact oracle)
//	beasbench -cpuprofile cpu.out  # profile any of the above
//
// -etaaudit runs the exact-oracle η-soundness audit (internal/etaaudit)
// and fails the run on any accuracy < η violation; with -out its sweep
// timings join the tracked perf trajectory. The -audit-* flags narrow the
// sweep for one-line violation reproduction (see the repro command every
// violation prints).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/etaaudit"
)

var figures = map[string]func(bench.Config) (*bench.Table, error){
	"6a": bench.Fig6a, "6b": bench.Fig6b, "6c": bench.Fig6c, "6d": bench.Fig6d,
	"6e": bench.Fig6e, "6f": bench.Fig6f, "6g": bench.Fig6g, "6h": bench.Fig6h,
	"6i": bench.Fig6i, "6j": bench.Fig6j, "6k": bench.Fig6k, "6l": bench.Fig6l,
}

var order = []string{"6a", "6b", "6c", "6d", "6e", "6f", "6g", "6h", "6i", "6j", "6k", "6l"}

func main() {
	// Exit via a return code so deferred profile writers always flush —
	// os.Exit inside the work would discard an in-flight CPU profile.
	os.Exit(run())
}

func run() (code int) {
	var (
		fig     = flag.String("fig", "all", "comma-separated figure ids (6a..6l) or 'all'")
		tiny    = flag.Bool("tiny", false, "use the tiny smoke-test configuration")
		queries = flag.Int("queries", 0, "override the number of workload queries")

		perf      = flag.Bool("perf", false, "run the tracked perf harness instead of the figures")
		httpB     = flag.Bool("http", false, "run the end-to-end HTTP latency harness (shard counts 1/2/4/8)")
		clusterB  = flag.Bool("cluster", false, "run the cluster latency harness (fetches routed over the peer RPC, node counts 1/2/3)")
		persistB  = flag.Bool("persist", false, "run the cold-vs-warm start harness (snapshot load vs ladder rebuild)")
		overloadB = flag.Bool("overload", false, "run the overload harness: goodput/eta/latency at saturation per brownout mode")
		obsB      = flag.Bool("obsbench", false, "run the observability-overhead harness (tracked ops + serving latency, obs off vs on)")
		auditB    = flag.Bool("etaaudit", false, "run the eta-soundness audit sweep (fails on any accuracy < eta)")
		out       = flag.String("out", "", "with -perf/-http: write (or append the run to) this JSON report")
		label     = flag.String("label", "current", "with -perf/-http: label of the run inside the report")
		pr        = flag.Int("pr", 3, "with -perf/-http -out: PR number recorded in a fresh report")
		smoke     = flag.Bool("smoke", false, "with -perf/-http: shrink to a fast correctness smoke")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")

		// -audit-* flags narrow the -etaaudit sweep (violation reproduction).
		// Defaults mirror etaaudit.DefaultConfig / ShortConfig (with -smoke).
		auditDatasets = flag.String("audit-datasets", "", "with -etaaudit: comma-separated sweeps (corpus,tpch,tfacc)")
		auditAlphas   = flag.String("audit-alphas", "", "with -etaaudit: comma-separated alpha grid")
		auditOnly     = flag.String("audit-only", "", "with -etaaudit: audit a single case, written dataset:index")
		auditCorpusSd = flag.Int64("audit-corpus-seed", 0, "with -etaaudit: corpus generator seed override")
		auditCorpusN  = flag.Int("audit-corpus-cases", 0, "with -etaaudit: corpus case count override")
		auditFixSd    = flag.Int64("audit-fixture-seed", 0, "with -etaaudit: Example 1 fixture seed override")
		auditScale    = flag.Int("audit-scale", 0, "with -etaaudit: dataset scale-factor override (tpch and tfacc)")
		auditDataSd   = flag.Int64("audit-dataset-seed", 0, "with -etaaudit: dataset generator seed override")
		auditQueriesN = flag.Int("audit-workload-queries", 0, "with -etaaudit: workload query count override")
		auditWorkSd   = flag.Int64("audit-workload-seed", 0, "with -etaaudit: workload generator seed override")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return errorf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return errorf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Runs after the work: on failure, surface a non-zero exit (unless
		// the run itself already failed with one).
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				if c := errorf("memprofile: %v", err); code == 0 {
					code = c
				}
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				if c := errorf("memprofile: %v", err); code == 0 {
					code = c
				}
			}
		}()
	}

	if *auditB {
		cfg := etaaudit.Config{
			Only: *auditOnly,
		}
		if *auditDatasets != "" {
			cfg.Datasets = strings.Split(*auditDatasets, ",")
		}
		if *auditAlphas != "" {
			for _, a := range strings.Split(*auditAlphas, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
				if err != nil {
					return errorf("etaaudit: bad -audit-alphas: %v", err)
				}
				cfg.Alphas = append(cfg.Alphas, v)
			}
		}
		base := etaaudit.DefaultConfig()
		if *smoke {
			base = etaaudit.ShortConfig()
		}
		if cfg.Datasets == nil {
			cfg.Datasets = base.Datasets
		}
		if cfg.Alphas == nil {
			cfg.Alphas = base.Alphas
		}
		cfg.CorpusSeed = override64(*auditCorpusSd, base.CorpusSeed)
		cfg.CorpusCases = override(*auditCorpusN, base.CorpusCases)
		cfg.FixtureSeed = override64(*auditFixSd, base.FixtureSeed)
		cfg.FixtureN, cfg.FixtureM = base.FixtureN, base.FixtureM
		cfg.TPCHScale = override(*auditScale, base.TPCHScale)
		cfg.TFACCScale = override(*auditScale, base.TFACCScale)
		cfg.DatasetSeed = override64(*auditDataSd, base.DatasetSeed)
		cfg.WorkloadQueries = override(*auditQueriesN, base.WorkloadQueries)
		cfg.WorkloadSeed = override64(*auditWorkSd, base.WorkloadSeed)
		return runEtaAudit(*out, *label, *pr, *smoke, cfg)
	}
	if *perf || *httpB || *clusterB || *persistB || *overloadB || *obsB {
		return runPerf(*out, *label, *pr, *smoke, *httpB, *clusterB, *persistB, *overloadB, *obsB)
	}
	return runFigures(*fig, *tiny, *queries)
}

// override returns v unless it is the zero "unset" sentinel.
func override(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

// override64 returns v unless it is the zero "unset" sentinel.
func override64(v, def int64) int64 {
	if v != 0 {
		return v
	}
	return def
}

// runEtaAudit executes the η-soundness sweep, appends its timings to the
// tracked report (when -out is given) and fails on any violation.
func runEtaAudit(out, label string, pr int, smoke bool, cfg etaaudit.Config) int {
	run, rep, err := bench.RunEtaAuditPerf(context.Background(), label, smoke, cfg)
	if err != nil {
		return errorf("etaaudit: %v", err)
	}
	for _, sw := range rep.Sweeps {
		fmt.Printf("etaaudit %-8s %4d queries %5d checked %3d skipped  %v\n",
			sw.Dataset, sw.Queries, sw.Checked, sw.Skipped, sw.Elapsed.Round(time.Millisecond))
	}
	if out != "" {
		if code := appendRun(out, pr, "Eta-audit sweep timings (exact-oracle soundness audit of the reported bounds).", run); code != 0 {
			return code
		}
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "beasbench: eta violation: %s\n", v)
		}
		return errorf("etaaudit: %d eta violation(s) across %d checked cases", len(rep.Violations), rep.Checked)
	}
	fmt.Printf("etaaudit: no violations across %d checked cases\n", rep.Checked)
	return 0
}

// appendRun merges one labelled run into the JSON perf report at path,
// creating the report (with the given description) if absent and replacing
// a same-labelled run.
func appendRun(path string, pr int, desc string, run *bench.PerfRun) int {
	rep, err := bench.ReadPerfReport(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return errorf("read %s: %v", path, err)
		}
		rep = &bench.PerfReport{
			SchemaVersion: 1,
			PR:            pr,
			Description:   desc,
		}
	}
	kept := rep.Runs[:0]
	for _, r := range rep.Runs {
		if r.Label != run.Label {
			kept = append(kept, r)
		}
	}
	rep.Runs = append(kept, *run)
	if err := bench.WritePerfReport(path, rep); err != nil {
		return errorf("write %s: %v", path, err)
	}
	fmt.Printf("wrote run %q to %s\n", run.Label, path)
	return 0
}

func runPerf(out, label string, pr int, smoke, httpB, clusterB, persistB, overloadB, obsB bool) int {
	var run *bench.PerfRun
	var err error
	desc := "Tracked execution-core performance: plan execution, offline index build, serving latency."
	switch {
	case httpB:
		run, err = bench.RunHTTPPerf(label, smoke, nil)
	case clusterB:
		run, err = bench.RunClusterPerf(label, smoke)
	case persistB:
		run, err = bench.RunPersistPerf(label, smoke)
	case overloadB:
		run, err = bench.RunOverloadPerf(label, smoke)
	case obsB:
		run, err = bench.RunObsPerf(label, smoke)
		desc = "Observability overhead: tracked ops and serving latency with tracing+audit off vs on."
	default:
		run, err = bench.RunPerf(label, smoke)
	}
	if err != nil {
		return errorf("perf: %v", err)
	}
	for _, b := range run.Benchmarks {
		fmt.Printf("%-24s %12.0f ns/op %10d allocs/op %12d B/op %10.0f tuples/op\n",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp, b.TuplesPerOp)
	}
	for _, l := range run.Latency {
		fmt.Printf("%-24s p50 %8.1fus  p99 %8.1fus  mean %8.1fus  (%d queries, %d workers, %.0f%% cache hits)\n",
			l.Name, l.P50Micros, l.P99Micros, l.MeanMicros, l.Queries, l.Workers, l.CacheHitRate*100)
	}
	for _, o := range run.Overload {
		fmt.Printf("%-14s %7.1f q/s goodput  %4d/%d served (%d degraded, %d rejected, %d shed)  mean eta %.3f  p99 %8.1fus  level %d (%d shifts)\n",
			o.Name, o.GoodputQPS, o.Served, o.Offered, o.Degraded, o.Rejected, o.Shed, o.MeanEta, o.P99Micros, o.FinalLevel, o.LevelShifts)
		if o.InternalErrors > 0 || o.EtaViolations > 0 {
			return errorf("overload %s: %d internal errors, %d eta violations (want 0)",
				o.Mode, o.InternalErrors, o.EtaViolations)
		}
	}
	if out == "" {
		return 0
	}
	// Replace a same-labelled run so re-runs stay idempotent.
	return appendRun(out, pr, desc, run)
}

func runFigures(fig string, tiny bool, queries int) int {
	cfg := bench.Default
	if tiny {
		cfg = bench.Tiny
	}
	if queries > 0 {
		cfg.Queries = queries
	}

	var ids []string
	if fig == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(fig, ",") {
			id = strings.TrimSpace(id)
			if _, ok := figures[id]; !ok {
				fmt.Fprintf(os.Stderr, "beasbench: unknown figure %q\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		start := time.Now()
		tbl, err := figures[id](cfg)
		if err != nil {
			return errorf("figure %s: %v", id, err)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(figure %s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func errorf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "beasbench: "+format+"\n", args...)
	return 1
}
