package access

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// randSource is a tiny helper keeping the op-sequence seeds readable.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Restoring a ladder from its snapshot must reproduce every observation —
// Fetch at every group and level, metadata, resolutions — exactly.
func TestSnapshotRestoreIdentical(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLadder(db, l.Snapshot())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	assertLadderIdentical(t, "restore", l, restored)
}

// A snapshot taken after incremental maintenance restores the maintained
// state, including the raw tuple lists further maintenance rebuilds from.
func TestSnapshotAfterMaintenance(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	ops := randomOps(randSource(17), 60)
	if _, err := s.Apply(db, ops); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.Ladders {
		restored, err := RestoreLadder(db, l.Snapshot())
		if err != nil {
			t.Fatalf("restore %s: %v", l.RelName, err)
		}
		assertLadderIdentical(t, "post-maintenance", l, restored)
	}
}

// RestoreLadder must reject structurally damaged snapshots with an error.
func TestRestoreLadderRejectsDamage(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type"}, []string{"price"})
	if err != nil {
		t.Fatal(err)
	}
	base := l.Snapshot()

	bad := base
	bad.RelName = "nope"
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("unknown relation must fail")
	}
	bad = base
	bad.Y = []string{"no_such_attr"}
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("unknown attribute must fail")
	}
	bad = base
	bad.Groups = append([]GroupSnapshot(nil), base.Groups...)
	bad.Groups[0].Resolutions = bad.Groups[0].Resolutions[:len(bad.Groups[0].Resolutions)-1]
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("level/resolution count mismatch must fail")
	}
	bad = base
	bad.Groups = append([]GroupSnapshot(nil), base.Groups...)
	bad.Groups[0].Distinct = bad.Groups[0].Items + 1
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("distinct count above item count must fail")
	}
	bad = base
	bad.Groups = append([]GroupSnapshot(nil), base.Groups...)
	bad.Groups[0].Levels = nil
	bad.Groups[0].Resolutions = nil
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("missing level views must fail")
	}
	bad = base
	bad.Groups = append([]GroupSnapshot(nil), base.Groups...)
	bad.Groups[0].Key = append(bad.Groups[0].Key.Clone(), relation.Int(1))
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("a key wider than X must fail")
	}
	bad = base
	bad.Groups = append([]GroupSnapshot(nil), base.Groups...)
	bad.Groups[1].Key = bad.Groups[0].Key
	if _, err := RestoreLadder(db, bad); err == nil {
		t.Error("two groups under one key must fail")
	}
}
