package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/access"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/relation"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot_digests.json from the current codec")

// TestSnapshotBytesPinned pins the version-2 snapshot file bytes, by sha256,
// of three deterministic systems — the TPCH fixture (sf=1) with its declared
// ladders, the Example 1 database the randomized corpus runs on, and the
// edge-shape corpus database — each built at 1 and 4 shards. The in-memory
// index may change shape freely; the bytes it serialises to may not, so
// snapshots written before and after such a change load interchangeably.
//
// Regenerate (only when the file format changes on purpose) with:
//
//	go test ./internal/persist -run TestSnapshotBytesPinned -update-golden
func TestSnapshotBytesPinned(t *testing.T) {
	systems := []struct {
		name  string
		build func(shards int) (*relation.Database, *access.Schema, error)
	}{
		{"tpch", func(shards int) (*relation.Database, *access.Schema, error) {
			d := workload.TPCH(1, 3)
			as, err := access.BuildAtSharded(d.DB, shards)
			if err != nil {
				return nil, nil, err
			}
			for _, spec := range d.Ladders {
				if _, err := as.ExtendSharded(d.DB, spec.Rel, spec.X, spec.Y, shards); err != nil {
					return nil, nil, err
				}
			}
			return d.DB, as, nil
		}},
		{"corpus", func(shards int) (*relation.Database, *access.Schema, error) {
			db := fixture.Example1(7, 120, 80)
			as, err := fixture.SchemaA0Sharded(db, shards)
			return db, as, err
		}},
		{"edge", func(shards int) (*relation.Database, *access.Schema, error) {
			db := corpus.EdgeDB()
			as, err := fixture.SchemaA0Sharded(db, shards)
			return db, as, err
		}},
	}
	got := map[string]string{}
	for _, sys := range systems {
		for _, shards := range []int{1, 4} {
			db, as, err := sys.build(shards)
			if err != nil {
				t.Fatalf("%s@%d: %v", sys.name, shards, err)
			}
			data, err := encodeSnapshotFile(captureSnapshot(db, as, 5))
			if err != nil {
				t.Fatalf("%s@%d: encode: %v", sys.name, shards, err)
			}
			sum := sha256.Sum256(data)
			got[fmt.Sprintf("%s@%d", sys.name, shards)] = hex.EncodeToString(sum[:])
		}
	}

	path := filepath.Join("testdata", "snapshot_digests.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, the test builds %d systems", path, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: snapshot bytes changed (sha256 %.12s, pinned %.12s)", name, sum, want[name])
		}
	}
}
