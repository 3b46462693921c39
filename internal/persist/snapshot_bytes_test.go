package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/relation"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot_digests.json from the current codec")

// TestSnapshotBytesPinned pins the version-2 snapshot file bytes, by sha256,
// of four deterministic systems — the TPCH fixture (sf=1) with its declared
// ladders, the Example 1 database the randomized corpus runs on, and the
// edge-shape corpus database, each built at 1 and 4 shards, and the
// maintained explicitSystem, the only one whose snapshot encodes a ladder's
// items explicitly. The in-memory index may change shape freely; the bytes
// it serialises to may not, so snapshots written before and after such a
// change load interchangeably.
//
// Regenerate (only when the file format changes on purpose) with:
//
//	go test ./internal/persist -run TestSnapshotBytesPinned -update-golden
func TestSnapshotBytesPinned(t *testing.T) {
	systems := []struct {
		name   string
		shards []int
		build  func(shards int) (*relation.Database, *access.Schema, error)
	}{
		{"tpch", []int{1, 4}, func(shards int) (*relation.Database, *access.Schema, error) {
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
		{"corpus", []int{1, 4}, func(shards int) (*relation.Database, *access.Schema, error) {
			db := fixture.Example1(7, 120, 80)
			as, err := fixture.SchemaA0Sharded(db, shards)
			return db, as, err
		}},
		{"edge", []int{1, 4}, func(shards int) (*relation.Database, *access.Schema, error) {
			db := corpus.EdgeDB()
			as, err := fixture.SchemaA0Sharded(db, shards)
			return db, as, err
		}},
		{"explicit", []int{1}, func(shards int) (*relation.Database, *access.Schema, error) {
			return explicitSystem(t, shards)
		}},
	}
	got := map[string]string{}
	for _, sys := range systems {
		for _, shards := range sys.shards {
			db, as, err := sys.build(shards)
			if err != nil {
				t.Fatalf("%s@%d: %v", sys.name, shards, err)
			}
			snap := captureSnapshot(db, as, 5)
			for li := range snap.ladders {
				if l := &snap.ladders[li]; sys.name == "explicit" && len(l.X) > 0 && derivable(snap.ladderRel(l.RelName), l) {
					t.Fatalf("explicit@%d: ladder %s(%v -> %v) is derivable; the system no longer covers explicit item encoding",
						shards, l.RelName, l.X, l.Y)
				}
			}
			data, err := encodeSnapshotFile(snap)
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

// explicitSystem is a maintained system whose r(a → b) and r(a → d)
// ladders' items are not the X-grouped projections of r in relation order,
// so a snapshot must encode them explicitly. A delete claims the first
// tuple of r equal to it, (1,2,20,2), but the first item of group a=1 equal
// to its projection, which came from (1,2,10,2): the group's items and the
// relation then disagree on order. Column b holds ints, strings, nulls and
// a float across the groups, so a column over every group's items mixes
// kinds while most groups' items do not; column d holds ints and nulls, and
// its groups a=3 and a=6 only nulls. The ladders are the generic At (one
// X = ∅ group per relation), r(a → b) and r(a → d).
func explicitSystem(t testing.TB, shards int) (*relation.Database, *access.Schema, error) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("r",
		relation.Attr("a", relation.KindInt, relation.Trivial()),
		relation.Attr("b", relation.KindInt, relation.Numeric(4)),
		relation.Attr("c", relation.KindInt, relation.Numeric(10)),
		relation.Attr("d", relation.KindInt, relation.Numeric(4)),
	))
	i, s, f, null := relation.Int, relation.String, relation.Float, relation.Null
	r.MustAppend(
		relation.Tuple{i(1), i(2), i(10), i(2)},
		relation.Tuple{i(1), i(3), i(11), i(3)},
		relation.Tuple{i(1), i(2), i(20), i(2)},
		relation.Tuple{i(2), s("x"), i(30), i(5)},
		relation.Tuple{i(2), s("y"), i(31), i(6)},
		relation.Tuple{i(3), null(), i(40), null()},
		relation.Tuple{i(3), null(), i(41), null()},
		relation.Tuple{i(4), f(2.5), i(50), i(7)},
		relation.Tuple{i(4), i(7), i(51), i(8)},
	)
	db.MustAdd(r)
	as, err := access.BuildAtSharded(db, shards)
	if err != nil {
		return nil, nil, err
	}
	for _, y := range []string{"b", "d"} {
		if _, err := as.ExtendSharded(db, "r", []string{"a"}, []string{y}, shards); err != nil {
			return nil, nil, err
		}
	}
	for _, batch := range explicitBatches() {
		if _, err := as.Apply(db, batch); err != nil {
			return nil, nil, err
		}
	}
	return db, as, nil
}

// explicitBatches are the Apply batches explicitSystem runs after its build.
func explicitBatches() [][]access.Op {
	i, s, null := relation.Int, relation.String, relation.Null
	ins := func(t ...relation.Value) access.Op { return access.Op{Kind: access.OpInsert, Rel: "r", Tuple: t} }
	del := func(t ...relation.Value) access.Op { return access.Op{Kind: access.OpDelete, Rel: "r", Tuple: t} }
	return [][]access.Op{
		{del(i(1), i(2), i(20), i(2))},
		{ins(i(5), i(9), i(60), i(9)), ins(i(2), s("z"), i(32), i(7)), del(i(2), s("x"), i(30), i(5)), ins(i(6), null(), i(70), null())},
		{ins(i(1), i(2), i(21), i(2)), ins(i(3), i(8), i(42), null()), del(i(4), i(7), i(51), i(8))},
	}
}

// An explicit item carries a count, and every item stands for one base
// tuple, so no encoder writes a count other than 1: a decoder meeting one
// rejects the file as corrupt instead of restoring a group that misstates
// its tuples.
func TestExplicitItemCountMustBeOne(t *testing.T) {
	db, as, err := explicitSystem(t, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := captureSnapshot(db, as, 5)
	payload, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The first group of an explicit ladder: its item block, then one
	// count byte (uvarint 1) per item.
	l := &snap.ladders[len(snap.ladders)-1]
	g := &l.Groups[0]
	items := relation.NewBlock(len(l.Y))
	for r := g.First; r < g.First+g.Items; r++ {
		items.AppendRow(l.Items, r)
	}
	block := relation.AppendBlock(nil, items)
	at := bytes.Index(payload, append(block, bytes.Repeat([]byte{1}, g.Items)...))
	if at < 0 {
		t.Fatal("explicit item block and counts not found in the payload")
	}
	payload[at+len(block)] = 2
	file := append([]byte(nil), snapshotMagic[:]...)
	file = binary.LittleEndian.AppendUint32(file, snapshotVersion)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	_, err = decodeSnapshotFile("mem", append(file, payload...))
	if ce := (*CorruptError)(nil); !errors.As(err, &ce) || !strings.Contains(err.Error(), "count 2") {
		t.Fatalf("item count 2: got %v, want *CorruptError naming the count", err)
	}
}
