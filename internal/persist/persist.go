// Package persist is the durability layer of the system: a versioned,
// checksummed on-disk store for the access-schema ladders (the asset the
// paper builds once offline and amortises across unboundedly many α-bounded
// queries) plus a write-ahead log for incremental maintenance, so restarts,
// deploys and crash recovery are warm instead of re-running the offline
// index construction.
//
// A persistence directory holds two files: SnapshotFile, a binary snapshot
// of the base relations and every ladder (codec.go), and WALFile, the
// maintenance log (wal.go). The recovery invariant is
//
//	state = snapshot ⊕ { WAL records with seq > snapshot.appliedSeq }
//
// which holds across a crash at any point: snapshot writes are atomic
// (temp file + rename), WAL records are appended before the in-memory
// mutation they describe, a torn tail loses at most the unacknowledged
// operation, and the applied-sequence watermark makes checkpoint-then-
// truncate idempotent under replay.
//
// Save and Load are the stateless halves (snapshot a system, warm-start
// one); OpenStore ties them together for a live system and adds the WAL,
// batched replay through access.(*Schema).Apply, and a background
// checkpointer that snapshots and truncates the log once enough records
// accumulate.
package persist

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/faultfs"
	"repro/internal/relation"
)

// DefaultCheckpointEvery is the WAL record count past which the background
// checkpointer writes a fresh snapshot and truncates the log, when the
// caller does not configure a threshold.
const DefaultCheckpointEvery = 4096

// DefaultCheckpointRetries is how many consecutive checkpoint failures the
// background checkpointer tolerates (retrying with capped exponential
// backoff) before opening the circuit: automatic checkpoints stop, serving
// continues memory-only, and only a successful explicit Checkpoint closes
// the circuit again.
const DefaultCheckpointRetries = 5

// Default backoff envelope of the checkpoint retry loop.
const (
	defaultRetryBase = 100 * time.Millisecond
	defaultRetryMax  = 5 * time.Second
)

// Checkpoint circuit states, as reported by Stats.CheckpointState and
// logged on every transition.
const (
	// StateHealthy: the last checkpoint (if any) succeeded.
	StateHealthy = "healthy"
	// StateRetrying: the last checkpoint failed and the background
	// checkpointer is retrying with backoff.
	StateRetrying = "retrying"
	// StateCircuitOpen: CheckpointRetries consecutive failures; automatic
	// checkpoints are suspended until a manual Checkpoint succeeds.
	StateCircuitOpen = "circuit-open"
)

// Save writes a snapshot of (db, as) to dir, creating the directory if
// needed. The write is atomic (temp file + rename), so a concurrent or
// crashed Save never leaves a half-written snapshot behind. Call under the
// same single-writer discipline as maintenance; ctx is checked before the
// encode and before the write.
func Save(ctx context.Context, db *relation.Database, as *access.Schema, dir string) error {
	return saveSeq(ctx, db, as, dir, 0, faultfs.OS())
}

// saveSeq is Save with an explicit applied-sequence watermark (OpenStore
// checkpoints pass the live sequence; a standalone Save starts at zero)
// and an explicit filesystem (stores write through their injectable seam).
func saveSeq(ctx context.Context, db *relation.Database, as *access.Schema, dir string, seq uint64, fsys faultfs.FS) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := encodeSnapshotFile(captureSnapshot(db, as, seq))
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return writeFileAtomic(fsys, filepath.Join(dir, SnapshotFile), data)
}

// Load restores the snapshot in dir: each relation of db is replaced with
// the snapshot's contents and the access schema is rebuilt from the stored
// ladders. It returns the schema and the snapshot's applied-sequence
// watermark. Damaged files are rejected with a *CorruptError; a missing
// snapshot surfaces the fs.ErrNotExist of the underlying read.
func Load(ctx context.Context, db *relation.Database, dir string) (*access.Schema, uint64, error) {
	return loadFS(ctx, db, dir, faultfs.OS())
}

// loadFS is Load through an explicit filesystem seam.
func loadFS(ctx context.Context, db *relation.Database, dir string, fsys faultfs.FS) (*access.Schema, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, SnapshotFile)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	snap, err := decodeSnapshotFile(path, data)
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	as, err := restoreSnapshot(db, snap)
	if err != nil {
		return nil, 0, err
	}
	return as, snap.appliedSeq, nil
}

// Options configures OpenStore.
type Options struct {
	// CheckpointEvery is the WAL record count that triggers an automatic
	// background checkpoint; 0 means DefaultCheckpointEvery, negative
	// disables automatic checkpoints (explicit Checkpoint still works).
	CheckpointEvery int
	// Sync forces an fsync after every WAL append. Off by default: the
	// record still reaches the OS immediately (surviving a process crash),
	// and the checkpointer syncs before truncating.
	Sync bool
	// FS is the filesystem the store reads and writes through; nil means
	// the real one (faultfs.OS()). Tests inject faults here.
	FS faultfs.FS
	// CheckpointRetries is how many consecutive checkpoint failures open
	// the circuit (automatic checkpoints suspended, serving continues
	// memory-only); 0 means DefaultCheckpointRetries, negative means 1 —
	// the first failure opens the circuit.
	CheckpointRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// checkpoint retries (defaults defaultRetryBase/defaultRetryMax);
	// ±20% jitter is applied so colocated stores don't retry in lockstep.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Logf receives the durability state-transition log lines (healthy →
	// retrying → circuit-open, WAL degradation and recovery); nil means
	// log.Printf. Tests capture transitions here.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of a store's counters, read by the
// metrics registry (RegisterMetrics) and /readyz.
type Stats struct {
	// Dir is the persistence directory.
	Dir string
	// WarmStart reports that OpenStore restored a snapshot rather than
	// building cold.
	WarmStart bool
	// Seq is the last assigned WAL sequence number.
	Seq uint64
	// WALRecords and WALBytes describe the live log (since last checkpoint).
	WALRecords int64
	WALBytes   int64
	// Replayed counts WAL records applied during recovery at open.
	Replayed int64
	// SkippedReplay counts recovery records already covered by the snapshot
	// watermark (a crash between checkpoint and truncate shows up here).
	SkippedReplay int64
	// Snapshots counts snapshot files written (checkpoints + initial save).
	Snapshots int64
	// Checkpoints counts completed checkpoint cycles (snapshot + truncate).
	Checkpoints int64
	// LastCheckpoint is when the latest checkpoint finished (zero if none).
	LastCheckpoint time.Time
	// CheckpointErr is the message of the most recent background checkpoint
	// failure, empty when the last one succeeded.
	CheckpointErr string
	// CheckpointFailures is the count of consecutive checkpoint failures
	// (0 when the last checkpoint succeeded).
	CheckpointFailures int
	// CheckpointState is the checkpoint circuit state: StateHealthy,
	// StateRetrying or StateCircuitOpen.
	CheckpointState string
	// CircuitOpen reports that automatic checkpoints are suspended after
	// CheckpointRetries consecutive failures; serving continues memory-only.
	CircuitOpen bool
	// WALDegraded reports that a WAL append (or its rollback) failed: the
	// log can no longer be trusted to extend, so mutations are refused
	// until a successful checkpoint re-establishes a consistent on-disk
	// state. Reads and queries are unaffected.
	WALDegraded bool
	// WALError is the failure that degraded the WAL, empty when healthy.
	WALError string
}

// Store binds a live system (db + access schema) to its persistence
// directory: it owns the WAL, assigns sequence numbers, and runs the
// background checkpointer. Mutations must go through Apply so the log is
// written ahead of the in-memory change; reads need no coordination.
type Store struct {
	dir  string
	db   *relation.Database
	as   *access.Schema
	opt  Options
	fs   faultfs.FS
	logf func(format string, args ...any)

	// mu serialises mutation, checkpointing and counter updates; it is the
	// store-level embodiment of the access schema's single-writer rule.
	mu         sync.Mutex
	wal        *wal
	seq        uint64 // last assigned sequence number
	appliedSeq uint64 // watermark of the snapshot currently on disk
	walRecords int64

	replayed, skipped      int64
	snapshots, checkpoints int64
	lastCheckpoint         time.Time
	checkpointErr          string
	ckptFails              int  // consecutive checkpoint failures
	circuitOpen            bool // automatic checkpoints suspended
	walDegraded            bool // WAL append failed; mutations refused
	walErr                 string
	warm                   bool

	kick   chan struct{}
	done   chan struct{}
	closed bool
}

// OpenStore opens dir for a live system. If a snapshot is present, the
// database contents and access schema are restored from it and the WAL is
// replayed (batched through access.(*Schema).Apply, skipping records the
// snapshot already covers) — a warm start. Otherwise build is invoked to
// construct the schema from db (cold start) and an initial snapshot is
// written so the next start is warm. The returned schema is the one the
// system must serve from; warm reports which path was taken.
func OpenStore(ctx context.Context, db *relation.Database, dir string, build func(*relation.Database) (*access.Schema, error), opt Options) (st *Store, as *access.Schema, warm bool, err error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, false, err
	}
	var appliedSeq uint64
	as, appliedSeq, err = loadFS(ctx, db, dir, fsys)
	switch {
	case err == nil:
		warm = true
	case os.IsNotExist(err):
		if build == nil {
			return nil, nil, false, fmt.Errorf("persist: no snapshot in %s and no schema builder", dir)
		}
		if as, err = build(db); err != nil {
			return nil, nil, false, err
		}
	default:
		return nil, nil, false, err
	}

	st = &Store{
		dir:        dir,
		db:         db,
		as:         as,
		opt:        opt,
		fs:         fsys,
		logf:       opt.Logf,
		appliedSeq: appliedSeq,
		seq:        appliedSeq,
		warm:       warm,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	if st.opt.CheckpointEvery == 0 {
		st.opt.CheckpointEvery = DefaultCheckpointEvery
	}
	switch {
	case st.opt.CheckpointRetries == 0:
		st.opt.CheckpointRetries = DefaultCheckpointRetries
	case st.opt.CheckpointRetries < 0:
		st.opt.CheckpointRetries = 1
	}
	if st.opt.RetryBase <= 0 {
		st.opt.RetryBase = defaultRetryBase
	}
	if st.opt.RetryMax <= 0 {
		st.opt.RetryMax = defaultRetryMax
	}
	if st.logf == nil {
		st.logf = log.Printf
	}

	w, recs, err := openWAL(fsys, filepath.Join(dir, WALFile))
	if err != nil {
		return nil, nil, false, err
	}
	if !warm && len(recs) > 0 {
		// A log without its snapshot means the snapshot was lost or
		// deleted: replaying onto a cold build would silently drop every
		// checkpointed operation (state = snapshot ⊕ WAL, and half the
		// equation is gone). Refuse loudly instead of recovering wrong.
		w.close()
		return nil, nil, false, fmt.Errorf(
			"persist: %s has %d WAL records but no snapshot — refusing to rebuild over a partial history (restore the snapshot, or remove the directory to start fresh)",
			dir, len(recs))
	}
	st.wal = w
	if err := st.replay(ctx, recs); err != nil {
		w.close()
		return nil, nil, false, err
	}
	if !warm {
		// First start: write the initial snapshot now, so the offline build
		// is paid exactly once (the next start loads it instead).
		if err := st.checkpointLocked(ctx); err != nil {
			w.close()
			return nil, nil, false, err
		}
	}
	go st.checkpointer()
	return st, as, warm, nil
}

// replay applies the scanned WAL records past the snapshot watermark as one
// batch, so a hot group touched by many logged updates is rebuilt once.
func (s *Store) replay(ctx context.Context, recs []walRecord) error {
	ops := make([]access.Op, 0, len(recs))
	for _, rec := range recs {
		if rec.seq > s.seq {
			s.seq = rec.seq
		}
		if rec.seq <= s.appliedSeq {
			s.skipped++
			continue
		}
		ops = append(ops, rec.op)
	}
	s.walRecords = int64(len(recs))
	if len(ops) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := s.as.Apply(s.db, ops); err != nil {
		return fmt.Errorf("persist: WAL replay: %w", err)
	}
	s.replayed = int64(len(ops))
	return nil
}

// validateOps rejects operations that could never apply — unknown
// relation, wrong arity, unknown kind — BEFORE anything reaches the log.
// A WAL record is re-applied on every recovery, so an op that would fail
// must never become durable: it would poison each subsequent open.
func validateOps(db *relation.Database, ops []access.Op) error {
	for i, op := range ops {
		r, ok := db.Relation(op.Rel)
		if !ok {
			return fmt.Errorf("persist: op %d: %s into unknown relation %q", i, op.Kind, op.Rel)
		}
		switch op.Kind {
		case access.OpInsert:
			if len(op.Tuple) != r.Schema.Arity() {
				return fmt.Errorf("persist: op %d: %s arity %d != %d of %s",
					i, op.Kind, len(op.Tuple), r.Schema.Arity(), op.Rel)
			}
		case access.OpDelete:
			// Any arity is acceptable: a non-matching tuple is a no-op.
		default:
			return fmt.Errorf("persist: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// Apply logs the operations (write-ahead) and then applies them to the
// database and ladders as one batch. It returns the per-op applied flags of
// access.(*Schema).Apply. Operations are validated before the first record
// is written, so the log never holds an op that recovery could not replay.
// Crossing the checkpoint threshold wakes the background checkpointer; the
// caller never blocks on a snapshot write.
//
// A failed append rolls the log back to the batch's start, so recovery can
// never replay an operation the caller was told failed — the batch is not
// acknowledged, in memory or on disk. Any append failure flips the store to
// degraded durability: further mutations are refused (queries are
// unaffected) until a successful Checkpoint rewrites the on-disk state
// wholesale and truncates the untrustworthy log.
func (s *Store) Apply(ctx context.Context, ops []access.Op) ([]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("persist: store is closed")
	}
	if s.walDegraded {
		return nil, fmt.Errorf("persist: WAL degraded (%s): mutations refused until a checkpoint succeeds", s.walErr)
	}
	if err := validateOps(s.db, ops); err != nil {
		return nil, err
	}
	startSeq, startBytes, startRecords := s.seq, s.wal.bytes, s.walRecords
	appendErr := func() error {
		for _, op := range ops {
			s.seq++
			if _, err := s.wal.append(s.seq, op); err != nil {
				return err
			}
			s.walRecords++
		}
		if s.opt.Sync {
			return s.wal.sync()
		}
		return nil
	}()
	if appendErr != nil {
		// Undo the batch's partial records before reporting failure: the
		// caller is told nothing was applied, and the log must agree.
		s.seq, s.walRecords = startSeq, startRecords
		cause := appendErr
		if rbErr := s.wal.rollback(startBytes); rbErr != nil {
			cause = fmt.Errorf("append: %v; rollback: %v", appendErr, rbErr)
		}
		s.degradeWALLocked(cause)
		return nil, fmt.Errorf("persist: WAL append: %w", appendErr)
	}
	applied, err := s.as.Apply(s.db, ops)
	if err != nil {
		return applied, err
	}
	if s.opt.CheckpointEvery > 0 && s.walRecords >= int64(s.opt.CheckpointEvery) {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return applied, nil
}

// SaveTo writes a standalone snapshot of the live system to another
// directory — a consistent copy usable by OpenStore elsewhere — under the
// store's mutation lock, so it cannot race a concurrent Apply or
// Checkpoint. The store's own WAL is untouched.
func (s *Store) SaveTo(ctx context.Context, dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	return saveSeq(ctx, s.db, s.as, dir, s.seq, s.fs)
}

// Checkpoint writes a fresh snapshot covering every applied operation and
// truncates the WAL. Safe to call at any time (shutdown, an operator
// /snapshot request, or the background checkpointer); concurrent callers
// serialise.
func (s *Store) Checkpoint(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	return s.checkpointLocked(ctx)
}

// checkpointLocked is Checkpoint with s.mu held: snapshot first (atomic
// rename), then sync + truncate the log. A crash between the two steps is
// benign — the stale records sit at or below the new watermark and replay
// skips them. Success resets every failure state: the consecutive-failure
// count, an open circuit, and WAL degradation (the fresh snapshot covers
// all applied operations and the truncated log is trivially consistent).
func (s *Store) checkpointLocked(ctx context.Context) error {
	err := func() error {
		if err := saveSeq(ctx, s.db, s.as, s.dir, s.seq, s.fs); err != nil {
			return err
		}
		s.snapshots++
		s.appliedSeq = s.seq
		if err := s.wal.sync(); err != nil {
			return err
		}
		if err := s.wal.reset(); err != nil {
			return err
		}
		s.walRecords = 0
		s.checkpoints++
		s.lastCheckpoint = time.Now()
		return nil
	}()
	s.noteCheckpointLocked(err)
	return err
}

// stateLocked names the checkpoint circuit state for logging and Stats.
func (s *Store) stateLocked() string {
	switch {
	case s.circuitOpen:
		return StateCircuitOpen
	case s.ckptFails > 0:
		return StateRetrying
	default:
		return StateHealthy
	}
}

// noteCheckpointLocked records a checkpoint outcome: bookkeeping for the
// consecutive-failure count and the circuit, with a log line on every state
// transition (healthy → retrying → circuit-open and back).
func (s *Store) noteCheckpointLocked(err error) {
	before := s.stateLocked()
	if err == nil {
		s.checkpointErr = ""
		s.ckptFails = 0
		s.circuitOpen = false
		if s.walDegraded {
			s.walDegraded = false
			s.walErr = ""
			s.logf("persist: %s: WAL durability restored by checkpoint", s.dir)
		}
	} else {
		s.checkpointErr = err.Error()
		s.ckptFails++
		if s.ckptFails >= s.opt.CheckpointRetries {
			s.circuitOpen = true
		}
	}
	if after := s.stateLocked(); after != before {
		s.logf("persist: %s: checkpoint state %s -> %s (consecutive failures: %d, last error: %v)",
			s.dir, before, after, s.ckptFails, err)
	}
}

// degradeWALLocked flips the store to degraded durability; a successful
// checkpoint is the only way back to accepting mutations. With automatic
// checkpoints on, it wakes the checkpointer to attempt one; with them off
// (CheckpointEvery < 0), the store stays degraded until an explicit
// Checkpoint.
func (s *Store) degradeWALLocked(cause error) {
	if !s.walDegraded {
		s.logf("persist: %s: WAL degraded, mutations refused until a checkpoint succeeds: %v", s.dir, cause)
	}
	s.walDegraded = true
	s.walErr = cause.Error()
	if s.opt.CheckpointEvery < 0 {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// checkpointer is the background goroutine draining threshold crossings.
// A failed checkpoint is retried with capped exponential backoff (±20%
// jitter); after CheckpointRetries consecutive failures the circuit opens
// and automatic attempts stop — serving continues memory-only — until a
// successful explicit Checkpoint closes it again.
func (s *Store) checkpointer() {
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
		}
		for attempt := 0; ; attempt++ {
			s.mu.Lock()
			open := s.circuitOpen
			s.mu.Unlock()
			if open {
				// Suspended: don't hammer a dead disk. A manual Checkpoint
				// (or /snapshot) resets the circuit on success.
				break
			}
			if err := s.Checkpoint(context.Background()); err == nil {
				break
			}
			select {
			case <-s.done:
				return
			case <-time.After(s.backoff(attempt)):
			}
		}
	}
}

// backoff returns the wait before retry `attempt`: RetryBase·2^attempt
// capped at RetryMax, with ±20% jitter.
func (s *Store) backoff(attempt int) time.Duration {
	d := s.opt.RetryBase << uint(attempt)
	if d <= 0 || d > s.opt.RetryMax {
		d = s.opt.RetryMax
	}
	jitter := time.Duration(rand.Int63n(int64(d)/5*2+1)) - d/5
	return d + jitter
}

// Dir returns the persistence directory the store is bound to.
func (s *Store) Dir() string { return s.dir }

// Stats returns a point-in-time snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                s.dir,
		WarmStart:          s.warm,
		Seq:                s.seq,
		WALRecords:         s.walRecords,
		WALBytes:           s.wal.bytes,
		Replayed:           s.replayed,
		SkippedReplay:      s.skipped,
		Snapshots:          s.snapshots,
		Checkpoints:        s.checkpoints,
		LastCheckpoint:     s.lastCheckpoint,
		CheckpointErr:      s.checkpointErr,
		CheckpointFailures: s.ckptFails,
		CheckpointState:    s.stateLocked(),
		CircuitOpen:        s.circuitOpen,
		WALDegraded:        s.walDegraded,
		WALError:           s.walErr,
	}
}

// Close stops the background checkpointer and closes the WAL. It does not
// checkpoint: callers wanting a final snapshot (graceful shutdown) call
// Checkpoint first. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.done)
	return s.wal.close()
}
