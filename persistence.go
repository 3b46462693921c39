package beas

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/access"
	"repro/internal/persist"
)

// This file is the public face of the persistence subsystem
// (internal/persist): versioned snapshots of the built ladders, a
// write-ahead log for incremental maintenance, and warm starts that skip
// the offline index construction entirely. The ladders are exactly the
// asset the paper says to precompute once and amortise across unboundedly
// many α-bounded queries — a restart that rebuilds them throws that
// amortisation away, so a production deployment snapshots them instead.

// PersistStats is a point-in-time snapshot of a persisted system's
// durability counters (WAL size, replay, checkpoints).
type PersistStats = persist.Stats

// Op is one maintenance operation (insert or delete) against a named
// relation; see System.Apply.
type Op = access.Op

// Maintenance operation kinds for Op.Kind.
const (
	// OpInsert appends Op.Tuple to the relation.
	OpInsert = access.OpInsert
	// OpDelete removes one occurrence of Op.Tuple from the relation.
	OpDelete = access.OpDelete
)

// persistConfig collects the OpenPersisted options.
type persistConfig struct {
	build             func(*Database) (*AccessSchema, error)
	checkpointEvery   int
	checkpointRetries int
	sync              bool
	logf              func(format string, args ...any)
}

// PersistOption tunes OpenPersisted.
type PersistOption func(*persistConfig)

// WithSchemaBuilder sets the access-schema constructor used on a cold start
// (no snapshot in the directory yet). The default builds the generic At.
// Warm starts restore the persisted ladders and never invoke the builder.
func WithSchemaBuilder(build func(*Database) (*AccessSchema, error)) PersistOption {
	return func(c *persistConfig) { c.build = build }
}

// WithCheckpointEvery sets how many WAL records accumulate before the
// background checkpointer writes a fresh snapshot and truncates the log.
// 0 keeps persist.DefaultCheckpointEvery; negative disables automatic
// checkpoints (System.Checkpoint still works).
func WithCheckpointEvery(n int) PersistOption {
	return func(c *persistConfig) { c.checkpointEvery = n }
}

// WithWALSync forces an fsync after every logged maintenance operation,
// trading update latency for durability against machine (not just process)
// crashes.
func WithWALSync() PersistOption {
	return func(c *persistConfig) { c.sync = true }
}

// WithCheckpointRetries sets how many consecutive checkpoint failures the
// background checkpointer tolerates (retrying with capped exponential
// backoff) before opening its circuit: automatic checkpoints stop and the
// system serves memory-only until an explicit Checkpoint succeeds. 0 keeps
// persist.DefaultCheckpointRetries; negative means the first failure opens
// the circuit.
func WithCheckpointRetries(n int) PersistOption {
	return func(c *persistConfig) { c.checkpointRetries = n }
}

// WithPersistLogf routes the durability state-transition log lines
// (checkpoint retrying, circuit open/closed, WAL degradation) to logf
// instead of the standard logger.
func WithPersistLogf(logf func(format string, args ...any)) PersistOption {
	return func(c *persistConfig) { c.logf = logf }
}

// OpenPersisted builds a System bound to a persistence directory. When the
// directory holds a snapshot, the database contents and ladders are
// restored from it and the maintenance WAL is replayed — a warm start that
// skips the offline index build. Otherwise the schema is built cold (via
// WithSchemaBuilder, default BuildAt) and an initial snapshot is written so
// the next start is warm. The db must hold the same dataset the snapshot
// was taken over (same relations and schemas); its tuple contents are
// replaced by the snapshot's on a warm start. Cancelling ctx abandons the
// open mid-way.
func OpenPersisted(ctx context.Context, db *Database, dir string, opts ...PersistOption) (*System, error) {
	cfg := persistConfig{build: access.BuildAt}
	for _, opt := range opts {
		opt(&cfg)
	}
	return openPersisted(ctx, db, dir, cfg)
}

// OpenPersistedSchema is OpenPersisted for a schema-only database: db holds
// the dataset's relations with no tuples, and populate generates their
// contents. On a warm start the snapshot in dir supplies the tuples, so
// populate never runs — dataset generation is skipped along with the offline
// index build (this is what lets `beasd -data` warm starts go straight from
// snapshot to serving). On a cold start populate runs first, then the schema
// builder (WithSchemaBuilder, default BuildAt) over the populated database,
// and the initial snapshot captures the result for the next start.
func OpenPersistedSchema(ctx context.Context, db *Database, dir string, populate func(*Database) error, opts ...PersistOption) (*System, error) {
	cfg := persistConfig{build: access.BuildAt}
	for _, opt := range opts {
		opt(&cfg)
	}
	build := cfg.build
	cfg.build = func(db *Database) (*AccessSchema, error) {
		if populate != nil {
			if err := populate(db); err != nil {
				return nil, err
			}
		}
		return build(db)
	}
	return openPersisted(ctx, db, dir, cfg)
}

// openPersisted binds the configured store: warm from dir's snapshot + WAL,
// or cold via cfg.build followed by an initial snapshot.
func openPersisted(ctx context.Context, db *Database, dir string, cfg persistConfig) (*System, error) {
	st, as, _, err := persist.OpenStore(ctx, db, dir, cfg.build, persist.Options{
		CheckpointEvery:   cfg.checkpointEvery,
		CheckpointRetries: cfg.checkpointRetries,
		Sync:              cfg.sync,
		Logf:              cfg.logf,
	})
	if err != nil {
		return nil, err
	}
	sys := Open(db, as)
	sys.store = st
	return sys, nil
}

// Persisted reports whether the system is bound to a persistence directory
// (built by OpenPersisted).
func (s *System) Persisted() bool { return s.store != nil }

// PersistStats returns the durability counters of a persisted system (the
// zero value when the system is not persisted).
func (s *System) PersistStats() PersistStats {
	if s.store == nil {
		return PersistStats{}
	}
	return s.store.Stats()
}

// Snapshot writes a versioned, checksummed snapshot of the system (base
// relations + every ladder) to dir. For a persisted system snapshotting
// into its own directory this is a checkpoint: the WAL is truncated once
// the snapshot covers it. Any other directory gets a standalone snapshot —
// a consistent copy usable by OpenPersisted elsewhere — and the system's
// own WAL is untouched. On a persisted system both paths serialise against
// concurrent maintenance; an in-memory system follows the single-writer
// discipline of maintenance.
func (s *System) Snapshot(ctx context.Context, dir string) error {
	if s.store != nil {
		a, err1 := filepath.Abs(dir)
		b, err2 := filepath.Abs(s.store.Dir())
		if err1 == nil && err2 == nil && a == b {
			return s.store.Checkpoint(ctx)
		}
		return s.store.SaveTo(ctx, dir)
	}
	return persist.Save(ctx, s.scheme.DB(), s.scheme.Access(), dir)
}

// Checkpoint snapshots a persisted system into its directory and truncates
// the WAL. It fails when the system was not built by OpenPersisted.
func (s *System) Checkpoint(ctx context.Context) error {
	if s.store == nil {
		return fmt.Errorf("beas: system is not persisted (use OpenPersisted)")
	}
	return s.store.Checkpoint(ctx)
}

// Apply runs a batch of maintenance operations: each is appended to the WAL
// (when the system is persisted) before the database and the affected
// ladder groups are updated, and every group touched by the batch is
// rebuilt exactly once — a storm of updates against one hot group costs a
// single reconstruction. applied[i] reports whether op i changed anything
// (false only for a delete whose tuple was missing). Maintenance follows a
// single-writer discipline: do not call concurrently with other maintenance
// or with queries.
func (s *System) Apply(ctx context.Context, ops []Op) (applied []bool, err error) {
	if s.store != nil {
		applied, err = s.store.Apply(ctx, ops)
	} else {
		if err = ctx.Err(); err != nil {
			return nil, err
		}
		applied, err = s.scheme.Access().Apply(s.scheme.DB(), ops)
	}
	// Plans bake in |D|-derived budgets and ladder metadata; regenerate.
	s.scheme.InvalidatePlans()
	return applied, err
}

// Insert appends the tuple to the named relation and incrementally updates
// every ladder indexing it, write-ahead logged when persisted.
func (s *System) Insert(ctx context.Context, rel string, t Tuple) error {
	_, err := s.Apply(ctx, []Op{{Kind: OpInsert, Rel: rel, Tuple: t}})
	return err
}

// Delete removes one occurrence of the tuple from the named relation and
// updates the affected ladder groups, write-ahead logged when persisted. It
// reports whether a tuple was removed.
func (s *System) Delete(ctx context.Context, rel string, t Tuple) (bool, error) {
	applied, err := s.Apply(ctx, []Op{{Kind: OpDelete, Rel: rel, Tuple: t}})
	if err != nil {
		return false, err
	}
	return applied[0], nil
}

// Close releases the persistence resources of a system built by
// OpenPersisted (stopping the background checkpointer and closing the WAL)
// and is a no-op otherwise. It does not write a final snapshot — call
// Checkpoint first for a graceful shutdown. Idempotent.
func (s *System) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// LadderStat describes one ladder's resident footprint, for operators
// sizing snapshot thresholds (the beas_ladder_* series of RegisterMetrics).
type LadderStat struct {
	// Relation, X and Y identify the ladder R(X → Y, ·, ·).
	Relation string
	X, Y     []string
	// Groups is the number of distinct X-values indexed.
	Groups int
	// Levels is the number of template levels (MaxK + 1).
	Levels int
	// ResidentTuples is the number of representative samples materialised
	// across all groups and levels (the in-memory fetch views).
	ResidentTuples int
	// MaxGroupDistinct is the largest group's distinct-Y count (the N of
	// the ladder's access-constraint view).
	MaxGroupDistinct int
}

// label names the ladder in metric series, "relation(X->Y)", with a "#n"
// suffix for the nth repeat of a name already in seen.
func (l LadderStat) label(seen map[string]float64) string {
	name := l.Relation + "(" + strings.Join(l.X, ",") + "->" + strings.Join(l.Y, ",") + ")"
	base := name
	for n := 2; ; n++ {
		if _, dup := seen[name]; !dup {
			return name
		}
		name = fmt.Sprintf("%s#%d", base, n)
	}
}

// LadderStats returns the per-ladder footprint of the system's access
// schema, in schema order.
func (s *System) LadderStats() []LadderStat {
	ladders := s.scheme.Access().Ladders
	out := make([]LadderStat, 0, len(ladders))
	for _, l := range ladders {
		out = append(out, LadderStat{
			Relation:         l.RelName,
			X:                append([]string(nil), l.X...),
			Y:                append([]string(nil), l.Y...),
			Groups:           l.NumGroups(),
			Levels:           l.MaxK() + 1,
			ResidentTuples:   l.IndexSize(),
			MaxGroupDistinct: l.MaxGroupDistinct(),
		})
	}
	return out
}
