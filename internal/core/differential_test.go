package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exec_digests.json and testdata/edge_digests.json from the current executor")

// TestExecutorMatchesStringKeyReference is the differential guard for the
// allocation-light execution core: over the same 200-case randomized corpus
// as TestSoundnessRandomQueries, every Answer (Rel, Eta, Exact, Stats) must
// be bit-identical to the digests recorded from the pre-rewrite executor,
// whose hot paths were keyed by canonical Tuple.Key strings. Any behavioural
// drift introduced by the hashed tuple maps, precompiled step layouts or
// kd-tree diff pruning shows up as a digest mismatch pinpointing the case.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test ./internal/core -run 'ExecutorMatchesStringKeyReference|ColumnarScanEdgeShapes' -update-golden
func TestExecutorMatchesStringKeyReference(t *testing.T) {
	const cases = 200
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}

	digests := make([]string, cases)
	for ci := 0; ci < cases; ci++ {
		digests[ci] = answerDigest(s, g.Query(), alphas[ci%len(alphas)], ExecOptions{})
	}
	checkGolden(t, "exec_digests.json", digests)
}

// TestColumnarScanEdgeShapes replays the deterministic edge-shape corpus
// (results emptied by EXCEPT, single-tuple relations, 64+-wide duplicate
// join keys) — the shapes where a columnar gather or block hash join would
// plausibly diverge first — against the digests in edge_digests.json.
// Those digests were recorded while a row-at-a-time executor, a lazy per-X
// fetch path and hash-partitioned ladders still existed beside the
// columnar batched one, and every combination of them reproduced the list.
func TestColumnarScanEdgeShapes(t *testing.T) {
	db := corpus.EdgeDB()
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	var edge []string
	for _, c := range corpus.EdgeCases() {
		edge = append(edge, answerDigest(s, c.Query, c.Alpha, ExecOptions{}))
	}
	checkGolden(t, "edge_digests.json", edge)
}

// answerDigest answers q at alpha under o and hashes everything the answer
// certifies: the query, its rows, η, exactness and budget consumption — or
// the error, since deterministic failures (e.g. the relaxed-join blowup
// guard) are part of the contract too.
func answerDigest(s *Scheme, q query.Expr, alpha float64, o ExecOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "q=%s\nalpha=%g\n", query.Render(q), alpha)
	o.Alpha = alpha
	ans, _, err := s.AnswerContext(context.Background(), q, o)
	if err != nil {
		fmt.Fprintf(h, "err=%v\n", err)
	} else {
		for _, k := range relKeys(ans.Rel) {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		fmt.Fprintf(h, "eta=%.12g\nexact=%v\naccessed=%d\ntruncated=%v\n",
			ans.Eta, ans.Exact, ans.Stats.Accessed, ans.Stats.Truncated)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares digests with testdata/<name>, or rewrites that file
// under -update-golden.
func checkGolden(t *testing.T, name string, digests []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		data, err := json.MarshalIndent(digests, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(digests), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(digests) {
		t.Fatalf("%s has %d digests, corpus has %d", name, len(want), len(digests))
	}
	for ci := range digests {
		if digests[ci] != want[ci] {
			t.Errorf("%s case %d: answer diverged from the recorded reference (digest %s != %s)",
				name, ci, digests[ci][:12], want[ci][:12])
		}
	}
}
