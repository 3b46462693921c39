package etaaudit

import (
	"context"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestAuditSweep is the η-audit gate: the configured sweep must report
// zero violations. In -short mode (PR CI) it runs the reduced ShortConfig
// budget; the full DefaultConfig sweep — the complete corpus plus both
// workload datasets across the whole α grid — runs otherwise.
func TestAuditSweep(t *testing.T) {
	cfg := DefaultConfig()
	if testing.Short() {
		cfg = ShortConfig()
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatal("audit checked nothing")
	}
	for _, v := range rep.Violations {
		t.Errorf("eta violation:\n%s", v)
	}
	for _, sw := range rep.Sweeps {
		t.Logf("%s: %d queries, %d checked, %d skipped in %v", sw.Dataset, sw.Queries, sw.Checked, sw.Skipped, sw.Elapsed)
	}
}

// TestAuditOnlyFilter checks the reproduction path: an Only filter of
// "dataset:index" must narrow the sweep to exactly that query, and the
// violation repro strings must reference the same filter syntax.
func TestAuditOnlyFilter(t *testing.T) {
	cfg := ShortConfig()
	cfg.Datasets = []string{"corpus"}
	cfg.Alphas = []float64{0.1}
	cfg.Only = "corpus:3"
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Sweeps[0].Queries; got != 1 {
		t.Fatalf("Only filter audited %d queries, want 1", got)
	}
	if repro := reproCommand(cfg, "corpus", 3, 0.1); !strings.Contains(repro, "-only corpus:3") ||
		!strings.Contains(repro, "-corpus-seed 42") {
		t.Fatalf("repro command lacks the filter or seed: %s", repro)
	}
}

// TestReproCommandParses feeds every repro command back through
// RegisterFlags, starting from the other budget's defaults, and checks it
// pins the case and every seed and size the sweep consumed.
func TestReproCommandParses(t *testing.T) {
	cfg := ShortConfig()
	cfg.CorpusSeed, cfg.FixtureSeed, cfg.DatasetSeed, cfg.WorkloadSeed = 5, 6, 7, 8
	cfg.TPCHScale, cfg.TFACCScale = 3, 4
	for _, ds := range []string{"corpus", "edge", "tpch", "tfacc"} {
		repro := reproCommand(cfg, ds, 2, 0.05)
		_, args, ok := strings.Cut(repro, " etaaudit ")
		if !ok {
			t.Fatalf("repro command does not name the etaaudit subcommand: %s", repro)
		}
		got := DefaultConfig()
		fs := flag.NewFlagSet("etaaudit", flag.ContinueOnError)
		got.RegisterFlags(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatalf("%s: %v", repro, err)
		}
		want := got
		want.Datasets, want.Alphas, want.Only = []string{ds}, []float64{0.05}, ds+":2"
		switch ds {
		case "corpus":
			want.CorpusSeed, want.CorpusCases, want.FixtureSeed = cfg.CorpusSeed, cfg.CorpusCases, cfg.FixtureSeed
		case "tpch", "tfacc":
			want.DatasetSeed, want.WorkloadQueries, want.WorkloadSeed = cfg.DatasetSeed, cfg.WorkloadQueries, cfg.WorkloadSeed
			want.TPCHScale, want.TFACCScale = cfg.TPCHScale, cfg.TPCHScale
			if ds == "tfacc" {
				want.TPCHScale, want.TFACCScale = cfg.TFACCScale, cfg.TFACCScale
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\nparsed  %+v\nwant    %+v", repro, got, want)
		}
	}
}

// TestAuditBadConfig rejects unrunnable configurations.
func TestAuditBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
	cfg := DefaultConfig()
	cfg.Datasets = []string{"nope"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}
