// Command beasbench regenerates the paper's evaluation (Figure 6, panels
// (a)–(l)) on the synthetic datasets, runs the overload campaign that
// compares brownout modes at saturation, and runs the exact-oracle η-audit
// sweep with its timings. It prints tables and writes no files; the
// engine's performance is measured by the benchmark in benchmark/
// (`bash benchmark/run.sh`).
//
// Usage:
//
//	beasbench                       # every figure at the default scale
//	beasbench figures -fig 6a,6d    # selected figures ("figures" is the default subcommand)
//	beasbench figures -tiny         # fast smoke scale
//	beasbench overload              # goodput, η and latency per brownout mode
//	beasbench etaaudit              # η-soundness sweep; fails on any accuracy < η
//
// Every η violation prints a one-line `beasbench etaaudit` command that
// replays exactly that case (see etaaudit.Config.RegisterFlags).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/etaaudit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one subcommand and returns the exit code: 0 on success, 1
// when the work failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := "figures"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("beasbench "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var exec func() error
	switch cmd {
	case "figures":
		fig := fs.String("fig", "all", "comma-separated figure ids (6a..6l) or 'all'")
		tiny := fs.Bool("tiny", false, "use the tiny smoke-test configuration")
		queries := fs.Int("queries", 0, "override the number of workload queries")
		exec = func() error { return runFigures(stdout, *fig, *tiny, *queries) }
	case "overload":
		exec = func() error { return runOverload(stdout) }
	case "etaaudit":
		cfg := etaaudit.DefaultConfig()
		cfg.RegisterFlags(fs)
		exec = func() error { return runEtaAudit(stdout, stderr, cfg) }
	default:
		fmt.Fprintf(stderr, "beasbench: unknown subcommand %q (want figures, overload or etaaudit)\n", cmd)
		return 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "beasbench %s: unexpected argument %q\n", cmd, fs.Arg(0))
		return 2
	}
	if err := exec(); err != nil {
		fmt.Fprintf(stderr, "beasbench %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func runFigures(w io.Writer, fig string, tiny bool, queries int) error {
	cfg := bench.Default
	if tiny {
		cfg = bench.Tiny
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	figs := bench.Figures
	if fig != "all" {
		figs = nil
		for _, id := range strings.Split(fig, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(bench.Figures, func(f bench.Figure) bool { return f.ID == id })
			if i < 0 {
				return fmt.Errorf("unknown figure %q", id)
			}
			figs = append(figs, bench.Figures[i])
		}
	}
	for _, f := range figs {
		start := time.Now()
		tbl, err := f.Run(cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		fmt.Fprintln(w, tbl.Format())
		fmt.Fprintf(w, "(figure %s took %v)\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runOverload prints one line per brownout mode; the campaign fails on any
// contained panic or η outside [0, 1].
func runOverload(w io.Writer) error {
	res, err := bench.RunOverload()
	for _, o := range res {
		fmt.Fprintf(w, "%-5s %7.1f q/s goodput  %4d/%d served (%d degraded, %d rejected, %d shed)  mean eta %.3f  p50 %v  p99 %v  level %d (%d shifts)\n",
			o.Mode, o.GoodputQPS, o.Served, o.Offered, o.Degraded, o.Rejected, o.Shed, o.MeanEta,
			o.P50.Round(time.Microsecond), o.P99.Round(time.Microsecond), o.FinalLevel, o.LevelShifts)
	}
	return err
}

// runEtaAudit runs the sweep, prints each pass's wall time and cost per
// audited (query, α) case, and fails on any violation.
func runEtaAudit(stdout, stderr io.Writer, cfg etaaudit.Config) error {
	rep, err := etaaudit.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	var total time.Duration
	for _, sw := range rep.Sweeps {
		total += sw.Elapsed
		fmt.Fprintf(stdout, "%-8s %4d queries %5d checked %3d skipped  %v  %v/case\n",
			sw.Dataset, sw.Queries, sw.Checked, sw.Skipped, sw.Elapsed.Round(time.Millisecond), perCase(sw.Elapsed, sw.Checked))
	}
	fmt.Fprintf(stdout, "%-8s %18d checked              %v  %v/case\n",
		"total", rep.Checked, total.Round(time.Millisecond), perCase(total, rep.Checked))
	for _, v := range rep.Violations {
		fmt.Fprintf(stderr, "eta violation: %s\n", v)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d eta violation(s) across %d checked cases", len(rep.Violations), rep.Checked)
	}
	fmt.Fprintf(stdout, "no violations across %d checked cases\n", rep.Checked)
	return nil
}

func perCase(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return (d / time.Duration(n)).Round(time.Microsecond)
}
