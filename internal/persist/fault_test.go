package persist

// Fault-injection coverage of the durability layer, driven through the
// faultfs seam: a failed fsync mid-snapshot must leave the previous
// snapshot loadable, a failed WAL append must never acknowledge the
// mutation (and must flip the store to degraded durability until a
// checkpoint heals it), ENOSPC during checkpoint-then-truncate must be
// crash-idempotent, and repeated checkpoint failures must walk the circuit
// healthy → retrying → circuit-open with a log line per transition.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/faultfs"
	"repro/internal/relation"
)

// openFaultStore opens a store over the fixture database through the given
// fault-injecting filesystem, with automatic checkpoints disabled unless
// the caller's options say otherwise.
func openFaultStore(t *testing.T, dir string, opt Options) (*Store, *relation.Database, *access.Schema, bool) {
	t.Helper()
	db := testDB()
	st, as, warm, err := OpenStore(context.Background(), db, dir, func(db *relation.Database) (*access.Schema, error) {
		return testSchema(t, db), nil
	}, opt)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st, db, as, warm
}

// quietLogf swallows expected durability noise so test output stays clean.
func quietLogf(string, ...any) {}

// A failed fsync during the snapshot temp-file write must abort the
// checkpoint BEFORE the rename: the previous snapshot stays untouched and
// the full state (old snapshot ⊕ WAL) remains recoverable.
func TestSnapshotFsyncFailureLeavesPreviousSnapshotLoadable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS())
	ops := testOps(7, 40)

	st, _, _, _ := openFaultStore(t, dir, Options{CheckpointEvery: -1, FS: ffs, Logf: quietLogf})
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatalf("apply: %v", err)
	}

	ffs.Inject(faultfs.Rule{Op: faultfs.OpSync, Path: ".snapshot-"})
	if err := st.Checkpoint(ctx); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint err = %v, want injected fsync failure", err)
	}
	stats := st.Stats()
	if stats.CheckpointState != StateRetrying || stats.CheckpointFailures != 1 {
		t.Errorf("after failed checkpoint: state=%s failures=%d, want retrying/1",
			stats.CheckpointState, stats.CheckpointFailures)
	}
	if stats.WALRecords != int64(len(ops)) {
		t.Errorf("WAL records = %d, want %d (failed checkpoint must not truncate)",
			stats.WALRecords, len(ops))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ffs.Clear()

	// The previous (initial) snapshot must still load, and recovery must
	// land on the full state: old snapshot plus the logged operations.
	st2, db2, as2, warm := openTestStore(t, dir)
	defer st2.Close()
	if !warm {
		t.Fatal("reopen after failed checkpoint not warm")
	}
	if got := st2.Stats().Replayed; got != int64(len(ops)) {
		t.Errorf("replayed %d records, want %d", got, len(ops))
	}
	refDB, refAS := referenceState(t, ops, len(ops))
	assertStateIdentical(t, "failed-fsync-recovery", refDB, refAS, db2, as2)
}

// A failed WAL append must never acknowledge the batch: the error is
// returned, no part of the batch reaches memory or survives on disk, and
// the store refuses further mutations (degraded durability) until a
// successful checkpoint re-establishes a consistent on-disk state.
func TestWALAppendFailureNeverAcknowledges(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS())
	ops := testOps(9, 30)

	st, db, as, _ := openFaultStore(t, dir, Options{CheckpointEvery: -1, FS: ffs, Logf: quietLogf})
	defer st.Close()
	if _, err := st.Apply(ctx, ops[:10]); err != nil {
		t.Fatalf("apply prefix: %v", err)
	}

	// Fail the 3rd record of the next batch: the first two appends land,
	// the rollback must cut them back out.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: WALFile, After: 2})
	if _, err := st.Apply(ctx, ops[10:20]); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("apply err = %v, want injected write failure", err)
	}
	stats := st.Stats()
	if !stats.WALDegraded || stats.WALError == "" {
		t.Errorf("after failed append: degraded=%v walErr=%q, want degraded with cause", stats.WALDegraded, stats.WALError)
	}
	if stats.WALRecords != 10 || stats.Seq != 10 {
		t.Errorf("after rollback: records=%d seq=%d, want 10/10 (batch fully undone)", stats.WALRecords, stats.Seq)
	}

	// Degraded: further mutations are refused outright.
	ffs.Clear()
	if _, err := st.Apply(ctx, ops[10:20]); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("apply while degraded err = %v, want refusal", err)
	}

	// In-memory state must equal the acknowledged prefix only.
	refDB, refAS := referenceState(t, ops, 10)
	assertStateIdentical(t, "degraded-memory", refDB, refAS, db, as)

	// A successful checkpoint heals: durability restored, mutations accepted.
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	stats = st.Stats()
	if stats.WALDegraded || stats.CheckpointState != StateHealthy {
		t.Errorf("after healing checkpoint: degraded=%v state=%s, want healthy", stats.WALDegraded, stats.CheckpointState)
	}
	if _, err := st.Apply(ctx, ops[10:20]); err != nil {
		t.Fatalf("apply after heal: %v", err)
	}
}

// The phantom-write check from the other side: after a failed append and a
// crash (no healing checkpoint), recovery must see only acknowledged
// operations — never a partial batch the caller was told failed.
func TestWALAppendFailureRecoveryHasNoPhantoms(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS())
	ops := testOps(11, 24)

	st, _, _, _ := openFaultStore(t, dir, Options{CheckpointEvery: -1, FS: ffs, Logf: quietLogf})
	if _, err := st.Apply(ctx, ops[:8]); err != nil {
		t.Fatalf("apply prefix: %v", err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: WALFile, After: 3})
	if _, err := st.Apply(ctx, ops[8:]); err == nil {
		t.Fatal("expected injected append failure")
	}
	// Simulate a crash: close without checkpointing.
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ffs.Clear()

	st2, db2, as2, warm := openTestStore(t, dir)
	defer st2.Close()
	if !warm {
		t.Fatal("reopen not warm")
	}
	refDB, refAS := referenceState(t, ops, 8)
	assertStateIdentical(t, "no-phantom-recovery", refDB, refAS, db2, as2)
}

// ENOSPC partway through the snapshot body write (checkpoint-then-truncate
// cycle) must be crash-idempotent: the torn temp file is never renamed over
// the real snapshot, the WAL is not truncated, and once space returns the
// next checkpoint completes and a reopen replays nothing twice.
func TestENOSPCDuringCheckpointIsCrashIdempotent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS())
	ops := testOps(13, 50)

	st, _, _, _ := openFaultStore(t, dir, Options{CheckpointEvery: -1, FS: ffs, Logf: quietLogf})
	if _, err := st.Apply(ctx, ops); err != nil {
		t.Fatalf("apply: %v", err)
	}

	// The disk "fills up" 256 bytes into the snapshot temp file.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".snapshot-", Bytes: 256, Err: faultfs.ErrNoSpace})
	if err := st.Checkpoint(ctx); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("checkpoint err = %v, want ENOSPC", err)
	}
	if got := st.Stats().WALRecords; got != int64(len(ops)) {
		t.Errorf("WAL records after ENOSPC checkpoint = %d, want %d (log must survive)", got, len(ops))
	}

	// Space returns: the retried checkpoint completes the cycle.
	ffs.Clear()
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if got := st.Stats().WALRecords; got != 0 {
		t.Errorf("WAL records after successful checkpoint = %d, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash-idempotence: the reopened state equals the reference and the
	// checkpoint made replay unnecessary.
	st2, db2, as2, warm := openTestStore(t, dir)
	defer st2.Close()
	if !warm {
		t.Fatal("reopen not warm")
	}
	stats := st2.Stats()
	if stats.Replayed != 0 || stats.SkippedReplay != 0 {
		t.Errorf("replayed=%d skipped=%d, want 0/0 after clean checkpoint", stats.Replayed, stats.SkippedReplay)
	}
	refDB, refAS := referenceState(t, ops, len(ops))
	assertStateIdentical(t, "enospc-recovery", refDB, refAS, db2, as2)
}

// The background checkpointer under persistent failure: retries with
// backoff, walks healthy → retrying → circuit-open with a log line per
// transition, stops attempting while open, and a manual checkpoint success
// closes the circuit (logging the transition back).
func TestCheckpointerRetryAndCircuit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS())

	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	st, _, _, _ := openFaultStore(t, dir, Options{
		CheckpointEvery:   4,
		CheckpointRetries: 3,
		RetryBase:         time.Millisecond,
		RetryMax:          4 * time.Millisecond,
		FS:                ffs,
		Logf:              logf,
	})
	defer st.Close()

	ffs.Inject(faultfs.Rule{Op: faultfs.OpSync, Path: ".snapshot-"})
	if _, err := st.Apply(ctx, testOps(17, 8)); err != nil {
		t.Fatalf("apply: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st.Stats().CircuitOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never opened; stats = %+v", st.Stats())
		}
		sleepMS(5)
	}
	stats := st.Stats()
	if stats.CheckpointState != StateCircuitOpen || stats.CheckpointFailures < 3 {
		t.Errorf("open circuit: state=%s failures=%d, want circuit-open/>=3", stats.CheckpointState, stats.CheckpointFailures)
	}
	if stats.CheckpointErr == "" {
		t.Error("open circuit: CheckpointErr empty, want last failure message")
	}

	// While open, automatic attempts stop: the snapshot sync count must not
	// keep climbing.
	syncs := ffs.Calls(faultfs.OpSync)
	sleepMS(50)
	if got := ffs.Calls(faultfs.OpSync); got != syncs {
		t.Errorf("sync calls climbed %d -> %d while circuit open", syncs, got)
	}

	// A manual checkpoint success closes the circuit.
	ffs.Clear()
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatalf("manual checkpoint: %v", err)
	}
	stats = st.Stats()
	if stats.CircuitOpen || stats.CheckpointState != StateHealthy || stats.CheckpointFailures != 0 || stats.CheckpointErr != "" {
		t.Errorf("after manual checkpoint: %+v, want healthy circuit closed", stats)
	}

	mu.Lock()
	joined := strings.Join(lines, "\n")
	mu.Unlock()
	for _, want := range []string{
		StateHealthy + " -> " + StateRetrying,
		StateRetrying + " -> " + StateCircuitOpen,
		StateCircuitOpen + " -> " + StateHealthy,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("transition log missing %q; got:\n%s", want, joined)
		}
	}
}
