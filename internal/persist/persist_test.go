package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/fixture"
	"repro/internal/relation"
)

// testDB returns a fresh deterministic copy of the Example 1 fixture; every
// call yields identical contents, which is what lets the tests compare a
// restored system against an independently built one.
func testDB() *relation.Database { return fixture.Example1(11, 60, 120) }

// testSchema builds the A0 access schema over db.
func testSchema(t *testing.T, db *relation.Database) *access.Schema {
	t.Helper()
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// assertLadderIdentical compares every observation of two ladders: identity,
// metadata, resolutions, and the FetchBlock view of every group at every
// level.
func assertLadderIdentical(t *testing.T, label string, a, b *access.Ladder) {
	t.Helper()
	if a.RelName != b.RelName || fmt.Sprint(a.X) != fmt.Sprint(b.X) || fmt.Sprint(a.Y) != fmt.Sprint(b.Y) {
		t.Fatalf("%s: ladder identity differs", label)
	}
	if a.MaxK() != b.MaxK() || a.NumGroups() != b.NumGroups() ||
		a.MaxGroupDistinct() != b.MaxGroupDistinct() || a.IndexSize() != b.IndexSize() {
		t.Fatalf("%s: %s metadata differs", label, a.RelName)
	}
	for k := 0; k <= a.MaxK(); k++ {
		ra, rb := a.Resolution(k), b.Resolution(k)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: %s resolution[%d][%d] = %g vs %g", label, a.RelName, k, i, ra[i], rb[i])
			}
		}
	}
	for _, x := range a.GroupXs() {
		if a.ExactLevelFor(x) != b.ExactLevelFor(x) {
			t.Fatalf("%s: %s group %v exact level differs", label, a.RelName, x)
		}
		for k := 0; k <= a.MaxK(); k++ {
			ba, _ := a.FetchBlock(x, k)
			bb, ok := b.FetchBlock(x, k)
			if !ok || ba.Rows() != bb.Rows() {
				t.Fatalf("%s: %s group %v level %d: sample counts differ", label, a.RelName, x, k)
			}
			ya, yb := ba.Y(), bb.Y()
			for i := 0; i < ba.Rows(); i++ {
				if ba.Counts()[i] != bb.Counts()[i] || ya.Tuple(i).Key() != yb.Tuple(i).Key() {
					t.Fatalf("%s: %s group %v level %d sample %d differs", label, a.RelName, x, k, i)
				}
			}
		}
	}
}

// assertSchemaIdentical compares two schemas ladder by ladder, plus the
// databases they index.
func assertStateIdentical(t *testing.T, label string, dbA *relation.Database, a *access.Schema, dbB *relation.Database, b *access.Schema) {
	t.Helper()
	if dbA.Size() != dbB.Size() {
		t.Fatalf("%s: |D| %d vs %d", label, dbA.Size(), dbB.Size())
	}
	for _, name := range dbA.Names() {
		ra, rb := dbA.MustRelation(name), dbB.MustRelation(name)
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: relation %s: %d vs %d tuples", label, name, ra.Len(), rb.Len())
		}
		for i := range ra.Tuples {
			if ra.Tuples[i].Key() != rb.Tuples[i].Key() {
				t.Fatalf("%s: relation %s tuple %d differs", label, name, i)
			}
		}
	}
	if len(a.Ladders) != len(b.Ladders) {
		t.Fatalf("%s: %d vs %d ladders", label, len(a.Ladders), len(b.Ladders))
	}
	for i := range a.Ladders {
		assertLadderIdentical(t, label, a.Ladders[i], b.Ladders[i])
	}
}

// testOps generates a deterministic mixed insert/delete sequence over the
// fixture schema, hammering a few hot poi groups.
func testOps(seed int64, n int) []access.Op {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"hotel", "bar"}
	ops := make([]access.Op, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 && i > 0 {
			j := rng.Intn(i)
			ops = append(ops, access.Op{Kind: access.OpDelete, Rel: "poi", Tuple: relation.Tuple{
				relation.String(fmt.Sprintf("wal-addr-%d", j)),
				relation.String(types[j%2]),
				relation.String(fixture.Cities[j%2]),
				relation.Float(float64(25 + j)),
			}})
			continue
		}
		ops = append(ops, access.Op{Kind: access.OpInsert, Rel: "poi", Tuple: relation.Tuple{
			relation.String(fmt.Sprintf("wal-addr-%d", i)),
			relation.String(types[i%2]),
			relation.String(fixture.Cities[i%2]),
			relation.Float(float64(25 + i)),
		}})
	}
	return ops
}

// Snapshot round trip: Save then Load must reproduce the database contents
// and every ladder observation.
func TestSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	db := testDB()
	as := testSchema(t, db)
	dir := t.TempDir()
	if err := Save(ctx, db, as, dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	db2 := testDB()
	as2, seq, err := Load(ctx, db2, dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if seq != 0 {
		t.Errorf("fresh snapshot watermark = %d, want 0", seq)
	}
	assertStateIdentical(t, "save/load", db, as, db2, as2)

	// A ladder whose items are encoded explicitly round-trips too: the
	// restored items are what the next batch rebuilds from, so applying it
	// to both systems must keep them identical.
	db, as, err = explicitSystem(t)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := Save(ctx, db, as, dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	db2, _, err = explicitSystem(t)
	if err != nil {
		t.Fatal(err)
	}
	as2, _, err = Load(ctx, db2, dir)
	if err != nil {
		t.Fatalf("load explicit: %v", err)
	}
	assertStateIdentical(t, "explicit load", db, as, db2, as2)
	for _, batch := range explicitBatches() {
		if _, err := as.Apply(db, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := as2.Apply(db2, batch); err != nil {
			t.Fatal(err)
		}
		assertStateIdentical(t, "explicit load then batch", db, as, db2, as2)
	}
}

// Encoding the same state twice must yield identical bytes (group order is
// canonicalised), and decode∘encode must be the identity.
func TestSnapshotEncodingDeterministic(t *testing.T) {
	db := testDB()
	as := testSchema(t, db)
	snap := captureSnapshot(db, as, 7)
	one, err := encodeSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	two, err := encodeSnapshotFile(captureSnapshot(db, as, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatal("same state encoded to different bytes")
	}
	decoded, err := decodeSnapshotFile("mem", one)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.appliedSeq != 7 {
		t.Errorf("appliedSeq = %d, want 7", decoded.appliedSeq)
	}
	redone, err := encodeSnapshotFile(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(redone, one) {
		t.Fatal("decode∘encode is not the identity")
	}
}

// Every corruption — truncation at any prefix, or a flipped byte anywhere —
// must be rejected with a *CorruptError and never panic or load garbage.
func TestSnapshotRejectsCorruption(t *testing.T) {
	db := testDB()
	as := testSchema(t, db)
	data, err := encodeSnapshotFile(captureSnapshot(db, as, 0))
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{0, 4, headerLen - 1, headerLen, headerLen + 10, len(data) / 2, len(data) - 1} {
		if _, err := decodeSnapshotFile("mem", data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		} else if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
			t.Errorf("truncation at %d: error %v is not a *CorruptError", cut, err)
		}
	}
	step := len(data)/97 + 1
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x41
		if _, err := decodeSnapshotFile("mem", mut); err == nil {
			t.Errorf("flipped byte at %d accepted", off)
		} else if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
			t.Errorf("flip at %d: error %v is not a *CorruptError", off, err)
		}
	}
}

// Load must surface a missing snapshot as fs.ErrNotExist (so OpenStore can
// fall back to a cold build) and a damaged one as *CorruptError.
func TestLoadErrorKinds(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if _, _, err := Load(ctx, testDB(), dir); !os.IsNotExist(err) {
		t.Errorf("missing snapshot: got %v, want not-exist", err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte("BEASSNAPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(ctx, testDB(), dir)
	if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
		t.Errorf("damaged snapshot: got %v, want *CorruptError", err)
	}

	// A well-formed header of the retired row-format version 1 is refused
	// by version, before its payload is looked at.
	v1 := append([]byte(nil), snapshotMagic[:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 0)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(nil))
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(ctx, testDB(), dir)
	if ce := (*CorruptError)(nil); !errors.As(err, &ce) || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Errorf("version-1 snapshot: got %v, want *CorruptError (unsupported snapshot version 1)", err)
	}
}

// Loading a snapshot against a database missing one of its relations must
// fail cleanly (wrong dataset for this directory).
func TestLoadRejectsWrongDataset(t *testing.T) {
	ctx := context.Background()
	db := testDB()
	as := testSchema(t, db)
	dir := t.TempDir()
	if err := Save(ctx, db, as, dir); err != nil {
		t.Fatal(err)
	}
	other := relation.NewDatabase()
	if _, _, err := Load(ctx, other, dir); err == nil {
		t.Error("load into an unrelated database must fail")
	}
}

// groupIndex numbers a snapshot's groups as the ladder's directory keys
// them — Int 3 and Float 3 are one key — and refuses keys of the wrong
// width and keys two groups share, so group i is always number i.
func TestGroupIndex(t *testing.T) {
	i, f, s := relation.Int, relation.Float, relation.String
	snap := func(keys ...relation.Tuple) *access.LadderSnapshot {
		l := &access.LadderSnapshot{}
		for _, k := range keys {
			l.Groups = append(l.Groups, access.GroupSnapshot{Key: k})
		}
		return l
	}
	gidx, ok := groupIndex(snap(relation.Tuple{i(3), s("a")}, relation.Tuple{f(2.5), s("a")}), 2)
	if !ok {
		t.Fatal("distinct keys refused")
	}
	for want, k := range []relation.Tuple{{f(3), s("a")}, {f(2.5), s("a")}} {
		if got, found := gidx.Find(k); !found || got != want {
			t.Fatalf("key %v: number (%d, %v), want %d", k, got, found, want)
		}
	}
	if _, ok := groupIndex(snap(relation.Tuple{i(3), s("a")}, relation.Tuple{f(3), s("a")}), 2); ok {
		t.Error("two groups under one canonical key accepted")
	}
	if _, ok := groupIndex(snap(relation.Tuple{i(3)}), 2); ok {
		t.Error("a key narrower than X accepted")
	}
}
