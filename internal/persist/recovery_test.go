package persist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/relation"
)

// sleepMS keeps the auto-checkpoint poll loop readable.
func sleepMS(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }

// openTestStore opens (or reopens) a store over a fresh fixture database.
func openTestStore(t *testing.T, dir string) (*Store, *relation.Database, *access.Schema, bool) {
	t.Helper()
	db := testDB()
	st, as, warm, err := OpenStore(context.Background(), db, dir, func(db *relation.Database) (*access.Schema, error) {
		as, err := testSchema(t, db), error(nil)
		return as, err
	}, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st, db, as, warm
}

// referenceState builds the ground truth: a cold system with ops[:n] applied
// in-memory, no persistence involved.
func referenceState(t *testing.T, ops []access.Op, n int) (*relation.Database, *access.Schema) {
	t.Helper()
	db := testDB()
	as := testSchema(t, db)
	if n > 0 {
		if _, err := as.Apply(db, ops[:n]); err != nil {
			t.Fatalf("reference apply: %v", err)
		}
	}
	return db, as
}

// The basic store cycle: cold open writes the initial snapshot; a reopen is
// warm and replays the logged operations, landing in exactly the state of
// an in-memory system that applied them.
func TestStoreWarmReopenReplaysWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ops := testOps(5, 80)

	st, _, _, warm := openTestStore(t, dir)
	if warm {
		t.Fatal("first open reported warm")
	}
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, db2, as2, warm := openTestStore(t, dir)
	defer st2.Close()
	if !warm {
		t.Fatal("reopen not warm")
	}
	stats := st2.Stats()
	if stats.Replayed != int64(len(ops)) {
		t.Errorf("replayed %d records, want %d", stats.Replayed, len(ops))
	}
	refDB, refAS := referenceState(t, ops, len(ops))
	assertStateIdentical(t, "warm-reopen", refDB, refAS, db2, as2)
}

// Crash recovery: kill the WAL mid-record at every boundary-straddling
// offset. The complete prefix must replay (byte-identical to the in-memory
// system that applied the same prefix) and the torn tail must be tolerated,
// then truncated so subsequent appends are clean.
func TestCrashRecoveryMidWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ops := testOps(8, 24)

	st, _, _, _ := openTestStore(t, dir)
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Crash: no checkpoint, no close — grab the raw log as it is on disk.
	walBytes, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Record boundaries, computed independently of scanWAL from the encoder.
	bounds := []int{0}
	for i, op := range ops {
		bounds = append(bounds, bounds[len(bounds)-1]+len(encodeWALRecord(uint64(i+1), op)))
	}
	if bounds[len(bounds)-1] != len(walBytes) {
		t.Fatalf("WAL is %d bytes, records sum to %d", len(walBytes), bounds[len(bounds)-1])
	}

	cuts := []struct {
		at   int
		want int // complete records surviving
	}{
		{bounds[len(bounds)-1], len(ops)},         // clean end
		{bounds[len(bounds)-1] - 1, len(ops) - 1}, // torn final body
		{bounds[len(bounds)-2] + 3, len(ops) - 1}, // torn final header
		{bounds[5], 5},     // crash after record 5
		{bounds[5] + 1, 5}, // torn record 6 header
		{3, 0},             // torn very first record
		{0, 0},             // empty log
	}
	for _, cut := range cuts {
		cdir := t.TempDir()
		snap, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, SnapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, WALFile), walBytes[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}

		st2, db2, as2, warm := openTestStore(t, cdir)
		if !warm {
			t.Fatalf("cut %d: not warm", cut.at)
		}
		stats := st2.Stats()
		if stats.Replayed != int64(cut.want) {
			t.Errorf("cut %d: replayed %d, want %d", cut.at, stats.Replayed, cut.want)
		}
		refDB, refAS := referenceState(t, ops, cut.want)
		assertStateIdentical(t, "crash-recovery", refDB, refAS, db2, as2)

		// The torn tail must be gone: appending after recovery and
		// re-reading must replay prefix+1 operations.
		extra := testOps(100, 1)
		if _, err := st2.Apply(ctx, extra); err != nil {
			t.Fatalf("cut %d: post-recovery apply: %v", cut.at, err)
		}
		st2.Close()
		st3, db3, as3, _ := openTestStore(t, cdir)
		refDB2, refAS2 := referenceState(t, append(append([]access.Op(nil), ops[:cut.want]...), extra...), cut.want+1)
		assertStateIdentical(t, "post-recovery-append", refDB2, refAS2, db3, as3)
		st3.Close()
	}
}

// A checksum mismatch on a complete record in the middle of the log is real
// corruption, not a torn tail: the open must fail with *CorruptError.
func TestWALRejectsMidFileCorruption(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ops := testOps(3, 10)
	st, _, _, _ := openTestStore(t, dir)
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	st.Close()

	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+2] ^= 0x5a // inside the first record's body
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db := testDB()
	_, _, _, err = OpenStore(ctx, db, dir, nil, Options{})
	if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption: got %v, want *CorruptError", err)
	}
}

// Checkpoint-then-truncate crash window: if the process dies after the new
// snapshot lands but before the WAL truncates, the stale records sit at or
// below the snapshot's watermark and replay must skip them — applying them
// twice would duplicate tuples.
func TestCheckpointWatermarkMakesReplayIdempotent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ops := testOps(21, 40)

	st, _, _, _ := openTestStore(t, dir)
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	staleWAL, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st.Close()
	// Simulate the crash window: resurrect the pre-checkpoint WAL next to
	// the post-checkpoint snapshot.
	if err := os.WriteFile(filepath.Join(dir, WALFile), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, db2, as2, warm := openTestStore(t, dir)
	defer st2.Close()
	if !warm {
		t.Fatal("not warm")
	}
	stats := st2.Stats()
	if stats.Replayed != 0 {
		t.Errorf("replayed %d stale records, want 0", stats.Replayed)
	}
	if stats.SkippedReplay != int64(len(ops)) {
		t.Errorf("skipped %d, want %d", stats.SkippedReplay, len(ops))
	}
	refDB, refAS := referenceState(t, ops, len(ops))
	assertStateIdentical(t, "watermark-skip", refDB, refAS, db2, as2)
}

// The background checkpointer must fire once the record threshold is
// crossed, truncating the WAL and bumping the counters.
func TestAutoCheckpointer(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db := testDB()
	st, _, _, err := OpenStore(ctx, db, dir, func(db *relation.Database) (*access.Schema, error) {
		return testSchema(t, db), nil
	}, Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ops := testOps(31, 16)
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	deadline := 200
	for ; deadline > 0; deadline-- {
		if st.Stats().Checkpoints >= 2 { // initial cold-start snapshot + auto
			break
		}
		if _, err := st.Apply(ctx, nil); err != nil { // idle poke
			t.Fatal(err)
		}
		sleepMS(5)
	}
	stats := st.Stats()
	if stats.Checkpoints < 2 {
		t.Fatalf("auto checkpoint never fired: %+v", stats)
	}
	if stats.WALRecords != 0 {
		t.Errorf("WAL holds %d records after checkpoint", stats.WALRecords)
	}
	if stats.CheckpointErr != "" {
		t.Errorf("checkpoint error: %s", stats.CheckpointErr)
	}
}

// A corrupted length field on a mid-file record must be detected as
// corruption (the length carries its own checksum), not mistaken for a
// torn tail — that mistake would silently truncate every later record.
func TestWALRejectsCorruptedLengthField(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _, _, _ := openTestStore(t, dir)
	if _, err := st.Apply(ctx, testOps(3, 10)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[1] |= 0x40 // inflate the first record's length far past end-of-file
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = OpenStore(ctx, testDB(), dir, nil, Options{})
	if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
		t.Fatalf("corrupted length: got %v, want *CorruptError", err)
	}
}

// An op that could never apply must be rejected before it reaches the log:
// a durable failing record would poison every subsequent recovery.
func TestApplyValidatesBeforeLogging(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _, _, _ := openTestStore(t, dir)
	good := testOps(9, 4)
	if _, err := st.Apply(ctx, good); err != nil {
		t.Fatal(err)
	}
	bad := [][]access.Op{
		{{Kind: access.OpInsert, Rel: "nosuchrel", Tuple: relation.Tuple{relation.Int(1)}}},
		{{Kind: access.OpInsert, Rel: "poi", Tuple: relation.Tuple{relation.Int(1)}}}, // arity
		{{Kind: access.OpKind(99), Rel: "poi", Tuple: relation.Tuple{}}},
	}
	for i, ops := range bad {
		if _, err := st.Apply(ctx, ops); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if got := st.Stats().WALRecords; got != int64(len(good)) {
		t.Fatalf("WAL holds %d records, want %d (no poison records)", got, len(good))
	}
	st.Close()

	// Recovery replays only the good prefix and succeeds.
	st2, db2, as2, _ := openTestStore(t, dir)
	defer st2.Close()
	if got := st2.Stats().Replayed; got != int64(len(good)) {
		t.Fatalf("replayed %d, want %d", got, len(good))
	}
	refDB, refAS := referenceState(t, good, len(good))
	assertStateIdentical(t, "post-validation", refDB, refAS, db2, as2)
}

// A WAL without its snapshot means half of the recovery equation
// (state = snapshot ⊕ WAL) is missing: rebuilding cold and replaying would
// silently drop every checkpointed operation, so the open must refuse.
func TestOpenRefusesWALWithoutSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _, _, _ := openTestStore(t, dir)
	if _, err := st.Apply(ctx, testOps(13, 6)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.Remove(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenStore(ctx, testDB(), dir, func(db *relation.Database) (*access.Schema, error) {
		return testSchema(t, db), nil
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("got %v, want refusal over snapshotless WAL", err)
	}
}
