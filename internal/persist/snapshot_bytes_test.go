package persist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
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
// ladders, the Example 1 database the randomized corpus runs on, the
// edge-shape corpus database, and the maintained explicitSystem, the only
// one whose snapshot encodes a ladder's items explicitly. The in-memory
// index may change shape freely; the bytes it serialises to may not, so
// snapshots written before and after such a change load interchangeably.
// The "@1" in each name is the per-ladder partition count the file records.
//
// Regenerate (only when the file format changes on purpose) with:
//
//	go test ./internal/persist -run TestSnapshotBytesPinned -update-golden
func TestSnapshotBytesPinned(t *testing.T) {
	systems := []struct {
		name  string
		build func() (*relation.Database, *access.Schema, error)
	}{
		{"tpch", func() (*relation.Database, *access.Schema, error) {
			d := workload.TPCH(1, 3)
			as, err := access.BuildAt(d.DB)
			if err != nil {
				return nil, nil, err
			}
			for _, spec := range d.Ladders {
				if _, err := as.Extend(d.DB, spec.Rel, spec.X, spec.Y); err != nil {
					return nil, nil, err
				}
			}
			return d.DB, as, nil
		}},
		{"corpus", func() (*relation.Database, *access.Schema, error) {
			db := fixture.Example1(7, 120, 80)
			as, err := fixture.SchemaA0(db)
			return db, as, err
		}},
		{"edge", edgeSystem},
		{"explicit", func() (*relation.Database, *access.Schema, error) {
			return explicitSystem(t)
		}},
	}
	got := map[string]string{}
	for _, sys := range systems {
		db, as, err := sys.build()
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		snap := captureSnapshot(db, as, 5)
		for li := range snap.ladders {
			if l := &snap.ladders[li]; sys.name == "explicit" && len(l.X) > 0 && derivable(snap.ladderRel(l.RelName), l) {
				t.Fatalf("explicit: ladder %s(%v -> %v) is derivable; the system no longer covers explicit item encoding",
					l.RelName, l.X, l.Y)
			}
		}
		data, err := encodeSnapshotFile(snap)
		if err != nil {
			t.Fatalf("%s: encode: %v", sys.name, err)
		}
		sum := sha256.Sum256(data)
		got[sys.name+"@1"] = hex.EncodeToString(sum[:])
	}

	path := digestsPath
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
	want := pinnedDigests(t)
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, the test builds %d systems", path, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: snapshot bytes changed (sha256 %.12s, pinned %.12s)", name, sum, want[name])
		}
	}
}

// digestsPath holds the pinned snapshot digests, by system name.
var digestsPath = filepath.Join("testdata", "snapshot_digests.json")

// pinnedDigests reads the digests TestSnapshotBytesPinned pins.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("read golden (run TestSnapshotBytesPinned with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// edgeSystem is the edge-shape corpus database with the A0 access schema.
func edgeSystem() (*relation.Database, *access.Schema, error) {
	db := corpus.EdgeDB()
	as, err := fixture.SchemaA0(db)
	return db, as, err
}

// legacyPartitionedSHA256 is the sha256 of testdata/snapshot_shards4's
// snapshot: the edge system's snapshot as written when ladders were
// hash-partitioned four ways, so each ladder record carries a partition
// count of 4.
const legacyPartitionedSHA256 = "691451dbd70121adb118df8f96abf4e8d3984df9bbc5c54e27808acd722a27aa"

// A snapshot written when ladders were hash-partitioned still loads: the
// decoder ignores the stored partition count, the restored system observes
// exactly what a fresh build does, and re-encoding it gives the bytes a
// fresh build writes.
func TestLegacyPartitionedSnapshotLoads(t *testing.T) {
	dir := filepath.Join("testdata", "snapshot_shards4")
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != legacyPartitionedSHA256 {
		t.Fatalf("%s changed (sha256 %.12s, pinned %.12s)", dir, hex.EncodeToString(sum[:]), legacyPartitionedSHA256)
	}
	db := corpus.EdgeDB()
	as, seq, err := Load(context.Background(), db, dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	freshDB, freshAS, err := edgeSystem()
	if err != nil {
		t.Fatal(err)
	}
	assertStateIdentical(t, "legacy load", freshDB, freshAS, db, as)
	out, err := encodeSnapshotFile(captureSnapshot(db, as, seq))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got, want := hex.EncodeToString(sum[:]), pinnedDigests(t)["edge@1"]; got != want {
		t.Fatalf("re-encoded legacy snapshot: sha256 %.12s, want edge@1 %.12s", got, want)
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
func explicitSystem(t testing.TB) (*relation.Database, *access.Schema, error) {
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
	as, err := access.BuildAt(db)
	if err != nil {
		return nil, nil, err
	}
	for _, y := range []string{"b", "d"} {
		if _, err := as.Extend(db, "r", []string{"a"}, []string{y}); err != nil {
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
	db, as, err := explicitSystem(t)
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
