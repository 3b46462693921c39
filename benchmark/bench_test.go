package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func smokeSet(t *testing.T, sp *spec) []workloadResult {
	t.Helper()
	cfg := config{spec: sp, seed: 7, scale: smokeScale, timed: 450 * time.Millisecond, traced: 300 * time.Millisecond}
	var names []string
	for _, w := range workloadDefs(cfg.scale) {
		names = append(names, w.name)
	}
	res, err := runSet(context.Background(), cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The smoke run must emit every workload and metric BENCHMARK.json names,
// and the same seed must give the same inputs.
func TestSmokeMatchesContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	first, second := smokeSet(t, sp), smokeSet(t, sp)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(first) {
		t.Fatalf("BENCHMARK.json names %d workloads, the run produced %d", len(sp.Workloads), len(first))
	}
	for i, w := range sp.Workloads {
		if w.Name != first[i].Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the run %q", i, w.Name, first[i].Name)
		}
	}
	for _, m := range sp.metrics() {
		if !name.MatchString(m.Name) {
			t.Errorf("metric %q: bad name", m.Name)
		}
	}
	// The program takes names and units from BENCHMARK.json and fails a run
	// that computes an undeclared metric (checked by Correct below); what is
	// left to check is that every declared metric is computed.
	for _, m := range sp.EndToEnd {
		for _, w := range first {
			if w.Metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, w.Metrics[m.Name])
			}
		}
	}
	for _, m := range sp.PerLayer {
		computed := false
		for _, w := range first {
			_, ok := w.Metrics[m.Name]
			computed = computed || ok
		}
		if !computed {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json and computed by no workload", m.Name)
		}
	}

	for i, w := range first {
		if !w.Correct || w.Failed != 0 || w.Metrics["persist.lost_acked_ops"] != 0 {
			t.Errorf("%s: %d failed operations: %v", w.Name, w.Failed, w.Failures)
		}
		o := second[i]
		if w.RequestDigest != o.RequestDigest {
			t.Errorf("%s: request sequence differs between two runs of one seed", w.Name)
		}
		for _, m := range []string{"eta_mean", "core.tuples_per_query"} {
			if w.Metrics[m] != o.Metrics[m] {
				t.Errorf("%s: %s = %v and %v in two runs of one seed", w.Name, m, w.Metrics[m], o.Metrics[m])
			}
		}
	}
}

// The benchmark must keep building while the ROADMAP's "one executor, one
// fetch seam" deletions land, so it may not name anything on that list.
func TestSourceAvoidsDeletionList(t *testing.T) {
	doomed := []string{"WithPartitionAwareFetch", "WithColumnarScan", "MinParallelEmitRows", "ExecuteSequential",
		"ExecuteFetch", "EvaluateFetched", "snapshotVersionV1", "snapshot_v1"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range doomed {
			if strings.Contains(string(src), d) {
				t.Errorf("%s references %s", f, d)
			}
		}
	}
}
