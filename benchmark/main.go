// Command benchmark measures BEAS end to end and layer by layer on five
// workloads; README.md in this directory is its manual, BENCHMARK.json at the
// repository root its contract.
//
//	bash benchmark/run.sh                      every workload, table + JSON under benchmark/out/
//	bash benchmark/run.sh --workload lib_small_d --seed 3 --seconds 12 --trace 0
//	bash benchmark/run.sh -smoke               everything in a few seconds
//	bash benchmark/run.sh -selfcheck           two sets back to back, compared within the bounds
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	spec   *spec // BENCHMARK.json: the workloads and every metric's name and unit
	seed   int64
	scale  scale
	timed  time.Duration // timed phase per workload, tracing off
	traced time.Duration // budget of the traced pass per workload; 0 skips it
	aux    string        // workload measured only as the base of another's ratio
}

// header describes the run, so a saved result can be read without its log.
type header struct {
	Commit       string         `json:"commit"`
	GoVersion    string         `json:"goVersion"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Clients      int            `json:"serveClients"`
	Seed         int64          `json:"seed"`
	TimedSeconds float64        `json:"timedSeconds"`
	Rounds       int            `json:"rounds"`
	TraceSeconds float64        `json:"traceSeconds"`
	FlushPolicy  string         `json:"flushPolicy"`
	Smoke        bool           `json:"smoke"`
	DBTuples     map[string]int `json:"dbTuples"`
	Started      string         `json:"started"`
}

type workloadResult struct {
	Name          string             `json:"name"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	RequestDigest string             `json:"requestDigest"`
	DBTuples      int                `json:"dbTuples"`
	Failures      []string           `json:"failures,omitempty"`
	Layers        []layerRow         `json:"layers,omitempty"`
	Metrics       map[string]float64 `json:"metrics"`
}

type runResult struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *runResult) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the contract's result line; empty runs all")
		seed      = flag.Int64("seed", 1, "seed of the generated data and requests")
		seconds   = flag.Float64("seconds", 12, "length of each workload's timed phase")
		trace     = flag.Int("trace", -1, "0: timed phase only; 1: half the time timed, half traced; default: timed phase, then a traced pass")
		smoke     = flag.Bool("smoke", false, "tiny data and sub-second phases: everything in a few seconds")
		selfcheck = flag.Bool("selfcheck", false, "run two sets back to back and compare them within the bounds of BENCHMARK.json")
		compare   = flag.Bool("compare", false, "compare two saved results (arguments: a.json b.json) within the bounds of BENCHMARK.json")
	)
	flag.Float64Var(seconds, "duration", 12, "alias of -seconds: scales every workload alike")
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		a, err := loadResult(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadResult(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(compareRuns(sp, a, b))
	}

	cfg := config{spec: sp, seed: *seed, scale: fullScale}
	if *smoke {
		cfg.scale = smokeScale
		*seconds = min(*seconds, 0.9)
	}
	total := time.Duration(*seconds * float64(time.Second))
	switch *trace {
	case 0:
		cfg.timed = total
	case 1:
		cfg.timed, cfg.traced = total/2, total/2
	default:
		cfg.timed, cfg.traced = total, total/2
	}
	ctx := context.Background()

	if *workload != "" {
		if findWorkload(cfg.scale, *workload) == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		names := []string{*workload}
		if *workload == "lib_large_d" && *trace == 1 {
			// cost_vs_small_d needs its base measured in the same process.
			names = []string{"lib_small_d", "lib_large_d"}
			cfg.aux = "lib_small_d"
		}
		res, err := runSet(ctx, cfg, names)
		if err != nil {
			fatal(err)
		}
		w := res[len(res)-1]
		printContractLine(sp, w, *trace == 1)
		if !w.Correct {
			for _, f := range w.Failures {
				fmt.Fprintln(os.Stderr, "FAIL", f)
			}
			os.Exit(1)
		}
		return
	}

	var names []string
	for _, w := range workloadDefs(cfg.scale) {
		names = append(names, w.name)
	}
	runs := 1
	if *selfcheck {
		runs = 2
	}
	var results []*runResult
	for i := 0; i < runs; i++ {
		hdr := newHeader(cfg, *seconds, *smoke)
		ws, err := runSet(ctx, cfg, names)
		if err != nil {
			fatal(err)
		}
		for _, w := range ws {
			hdr.DBTuples[w.Name] = w.DBTuples
		}
		r := &runResult{Header: hdr, Workloads: ws}
		printTable(sp, r)
		path, err := saveResult(r, i)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nresult written to %s; traces in %s\n", path, filepath.Join(outDir(), "trace-<workload>.json"))
		results = append(results, r)
	}
	code := 0
	if *selfcheck {
		code = compareRuns(sp, results[0], results[1])
	}
	for _, r := range results {
		if !r.correct() {
			fmt.Fprintln(os.Stderr, "FAIL: a workload reported incorrect answers or failed operations (see failures above)")
			code = 1
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func newHeader(cfg config, seconds float64, smoke bool) header {
	return header{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clientCount(), Seed: cfg.seed, TimedSeconds: cfg.timed.Seconds(), Rounds: rounds,
		TraceSeconds: cfg.traced.Seconds(), Smoke: smoke, DBTuples: map[string]int{},
		FlushPolicy: "lib_read_write: default (no WithWALSync: a write is acknowledged once the OS has it), checkpoint every 2000 records",
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the source measured: git's HEAD, or "unknown" where the
// checkout is not a repository.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printContractLine prints the one JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func printContractLine(sp *spec, w workloadResult, traced bool) {
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{w.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printTable prints every metric of every workload by name, with its unit.
func printTable(sp *spec, r *runResult) {
	h := r.Header
	fmt.Printf("BEAS benchmark  commit=%s %s nproc=%d GOMAXPROCS=%d serve-clients=%d seed=%d timed=%.1fs×%d-rounds traced=%.1fs smoke=%v\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Clients, h.Seed, h.TimedSeconds, h.Rounds, h.TraceSeconds, h.Smoke)
	fmt.Printf("flush policy: %s\n", h.FlushPolicy)
	fmt.Printf("\n%-34s %-6s", "metric", "unit")
	for _, w := range r.Workloads {
		fmt.Printf(" %15s", w.Name)
	}
	fmt.Println()
	row := func(d specMetric) {
		fmt.Printf("%-34s %-6s", d.Name, d.Unit)
		for _, w := range r.Workloads {
			fmt.Printf(" %15s", formatValue(w.Metrics[d.Name]))
		}
		fmt.Println()
	}
	fmt.Println("-- end to end (median of rounds; n = bench.samples)")
	for _, d := range sp.EndToEnd {
		row(d)
	}
	fmt.Println("-- per layer (0 = does not apply to the workload)")
	for _, d := range sp.PerLayer {
		row(d)
	}
	fmt.Printf("%-41s", "|D| tuples")
	for _, w := range r.Workloads {
		fmt.Printf(" %15d", w.DBTuples)
	}
	fmt.Printf("\n%-41s", "attempted / failed")
	for _, w := range r.Workloads {
		fmt.Printf(" %15s", fmt.Sprintf("%d / %d", w.Attempted, w.Failed))
	}
	fmt.Println()
	for _, w := range r.Workloads {
		if len(w.Layers) == 0 {
			continue
		}
		fmt.Printf("\n%s: traced pass, self time by layer (residual %.1f%%)\n", w.Name, w.Metrics["bench.layer_sum_residual_pct"])
		fmt.Printf("  %-20s %7s %12s %12s %8s\n", "span", "ops", "p50 us", "self p50 us", "share")
		for _, l := range w.Layers {
			fmt.Printf("  %-20s %7d %12s %12s %7.1f%%\n", l.Name, l.Ops, formatValue(l.P50US), formatValue(l.SelfP50), l.SharePct)
		}
	}
	for _, w := range r.Workloads {
		for _, f := range w.Failures {
			fmt.Printf("FAIL %s\n", f)
		}
	}
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func saveResult(r *runResult, i int) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-seed%d-%d.json", r.Header.Seed, i))
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

func loadResult(path string) (*runResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spec is BENCHMARK.json, the benchmark's contract. It is the one list of
// metric names and units: a metric the program computes but the file does
// not declare fails the run (instance.finish), and a declared metric the
// workload does not compute reads 0.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// (run.sh starts the program there) or its parent (go test runs in benchmark/).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// outDir holds results, traces and the read-write workload's scratch data;
// the root .gitignore names it.
func outDir() string { return filepath.Join(repoRoot(), "benchmark", "out") }

// metrics lists every declared metric, end-to-end first.
func (s *spec) metrics() []specMetric {
	return append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...)
}

func loadSpec() (*spec, error) {
	path := filepath.Join(repoRoot(), "BENCHMARK.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareRuns prints, per end-to-end metric and workload, both values and the
// bound, and calls the pair "ok" when they agree within the bound and
// "unresolved" when they do not: two runs of one program that far apart mean
// the metric cannot resolve a change of the size its bound forbids. It
// returns the exit code: 1 if any pair is unresolved.
func compareRuns(sp *spec, a, b *runResult) int {
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Printf("\n%-18s %-16s %14s %14s %8s %7s  %s\n", "metric", "workload", "first", "second", "diff", "bound", "verdict")
	unresolved := 0
	for _, m := range sp.EndToEnd {
		for _, wa := range a.Workloads {
			wb, ok := byName[wa.Name]
			if !ok {
				continue
			}
			va, vb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			diff := ratio(max(va, vb)-min(va, vb), min(va, vb))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-18s %-16s %14s %14s %7.1f%% %6.0f%%  %s\n", m.Name, wa.Name, formatValue(va), formatValue(vb), 100*diff, 100*m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		fmt.Printf("%d (metric, workload) pairs differ by more than their bound\n", unresolved)
		return 1
	}
	fmt.Println("every end-to-end metric agrees within its bound on every workload")
	return 0
}
