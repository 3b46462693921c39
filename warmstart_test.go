package beas_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	beas "repro"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/persist"
	"repro/internal/workload"
)

// corpusDB returns the soundness-corpus fixture database (the exact
// parameters internal/core's TestSoundnessRandomQueries uses); every call
// is an identical fresh copy.
func corpusDB() *beas.Database { return fixture.Example1(7, 120, 80) }

// assertSameAnswers runs the full canonical corpus against both systems and
// requires byte-identical results: answers (tuples in emission order), the
// accuracy bound η, exactness, and the access statistics. Planning errors
// (relaxed-join blowups some corpus cases hit) must occur identically too.
func assertSameAnswers(t *testing.T, label string, fresh, warm *beas.System) {
	t.Helper()
	ctx := context.Background()
	checked := 0
	for ci, c := range corpus.Default() {
		fa, fp, ferr := fresh.Query(ctx, c.Query, beas.WithAlpha(c.Alpha))
		wa, wp, werr := warm.Query(ctx, c.Query, beas.WithAlpha(c.Alpha))
		if (ferr == nil) != (werr == nil) {
			t.Fatalf("%s case %d: fresh err=%v, warm err=%v", label, ci, ferr, werr)
		}
		if ferr != nil {
			if !strings.Contains(ferr.Error(), "exceeds limit") {
				t.Fatalf("%s case %d: %v", label, ci, ferr)
			}
			if ferr.Error() != werr.Error() {
				t.Fatalf("%s case %d: errors differ: %v vs %v", label, ci, ferr, werr)
			}
			continue
		}
		if fa.Eta != wa.Eta || fa.Exact != wa.Exact || fa.Stats != wa.Stats {
			t.Fatalf("%s case %d: (eta=%g exact=%v stats=%+v) vs warm (eta=%g exact=%v stats=%+v)",
				label, ci, fa.Eta, fa.Exact, fa.Stats, wa.Eta, wa.Exact, wa.Stats)
		}
		if fp.Eta != wp.Eta || fp.Budget != wp.Budget || fp.Exact != wp.Exact {
			t.Fatalf("%s case %d: plans differ: (eta=%g budget=%d) vs (eta=%g budget=%d)",
				label, ci, fp.Eta, fp.Budget, wp.Eta, wp.Budget)
		}
		if fa.Rel.Len() != wa.Rel.Len() {
			t.Fatalf("%s case %d: %d vs %d answer rows", label, ci, fa.Rel.Len(), wa.Rel.Len())
		}
		for i := range fa.Rel.Tuples {
			if fa.Rel.Tuples[i].Key() != wa.Rel.Tuples[i].Key() {
				t.Fatalf("%s case %d: answer row %d differs: %v vs %v",
					label, ci, i, fa.Rel.Tuples[i], wa.Rel.Tuples[i])
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("%s: only %d corpus cases checked — corpus degenerated", label, checked)
	}
}

// mutationOps is a small deterministic maintenance batch against the
// fixture's poi relation.
func mutationOps(n int) []beas.Op {
	ops := make([]beas.Op, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			ops = append(ops, beas.Op{Kind: beas.OpDelete, Rel: "poi", Tuple: beas.Tuple{
				beas.String(fmt.Sprintf("warm-addr-%d", i-1)), beas.String("hotel"),
				beas.String("NYC"), beas.Float(float64(40 + i - 1)),
			}})
			continue
		}
		ops = append(ops, beas.Op{Kind: beas.OpInsert, Rel: "poi", Tuple: beas.Tuple{
			beas.String(fmt.Sprintf("warm-addr-%d", i)), beas.String("hotel"),
			beas.String("NYC"), beas.Float(float64(40 + i)),
		}})
	}
	return ops
}

// The acceptance property of the persistence subsystem: snapshot → restart
// → load answers the whole 200-case soundness corpus byte-identically to
// the freshly built in-memory system.
func TestWarmStartSoundnessCorpus(t *testing.T) {
	ctx := context.Background()
	// The subtest keeps the name it had when ladders could be split into
	// shards: one group map per ladder is the layout shards=1 pinned.
	t.Run("shards=1", func(t *testing.T) {
		db := corpusDB()
		as, err := fixture.SchemaA0(db)
		if err != nil {
			t.Fatal(err)
		}
		fresh := beas.Open(db, as)

		dir := t.TempDir()
		if err := fresh.Snapshot(ctx, dir); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		warm, err := beas.OpenPersisted(ctx, corpusDB(), dir,
			beas.WithSchemaBuilder(func(*beas.Database) (*beas.AccessSchema, error) {
				return nil, fmt.Errorf("cold build must not run: a snapshot exists")
			}))
		if err != nil {
			t.Fatalf("warm open: %v", err)
		}
		defer warm.Close()
		if !warm.PersistStats().WarmStart {
			t.Fatal("open was not a warm start")
		}
		assertSameAnswers(t, "warm", fresh, warm)
	})
}

// The warm-start regeneration fix (PR 6 satellite, ROADMAP carried item):
// OpenPersistedSchema takes a schema-only shell and a deferred tuple
// generator. A cold start runs the generator exactly once (inside the
// cold-build closure, before the ladder build); a warm start restores
// tuples and ladders from the snapshot and must invoke neither the
// generator nor the schema builder — and still answer identically to a
// freshly generated in-memory system.
func TestWarmStartSkipsGeneration(t *testing.T) {
	ctx := context.Background()
	const sf, seed = 1, 2017
	dir := t.TempDir()

	// Cold start from a schema-only shell: populate runs exactly once.
	shell := workload.TPCHSchema(sf)
	if shell.DB.Size() != 0 {
		t.Fatalf("schema shell holds %d tuples, want 0", shell.DB.Size())
	}
	populated := 0
	cold, err := beas.OpenPersistedSchema(ctx, shell.DB, dir,
		func(*beas.Database) error { populated++; return shell.Populate(seed) },
		beas.WithSchemaBuilder(func(*beas.Database) (*beas.AccessSchema, error) {
			return shell.AccessSchema()
		}))
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	if populated != 1 {
		t.Fatalf("cold start ran populate %d times, want 1", populated)
	}
	coldSize := shell.DB.Size()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm start: neither the generator nor the builder may run.
	shell2 := workload.TPCHSchema(sf)
	warm, err := beas.OpenPersistedSchema(ctx, shell2.DB, dir,
		func(*beas.Database) error {
			return fmt.Errorf("tuple generation must not run: a snapshot exists")
		},
		beas.WithSchemaBuilder(func(*beas.Database) (*beas.AccessSchema, error) {
			return nil, fmt.Errorf("cold build must not run: a snapshot exists")
		}))
	if err != nil {
		t.Fatalf("warm open: %v", err)
	}
	defer warm.Close()
	if !warm.PersistStats().WarmStart {
		t.Fatal("open was not a warm start")
	}
	if shell2.DB.Size() != coldSize {
		t.Fatalf("warm-restored |D| = %d, cold-generated |D| = %d", shell2.DB.Size(), coldSize)
	}

	// The restored system answers like a freshly generated in-memory one.
	ref := workload.TPCH(sf, seed)
	if ref.DB.Size() != coldSize {
		t.Fatalf("one-shot TPCH |D| = %d, deferred-populate |D| = %d — generation diverged", ref.DB.Size(), coldSize)
	}
	as, err := ref.AccessSchema()
	if err != nil {
		t.Fatal(err)
	}
	fresh := beas.Open(ref.DB, as)
	queries, err := ref.Workload(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		fa, _, ferr := fresh.Query(ctx, q, beas.WithAlpha(0.05))
		wa, _, werr := warm.Query(ctx, q, beas.WithAlpha(0.05))
		if (ferr == nil) != (werr == nil) {
			t.Fatalf("query %d: fresh err=%v, warm err=%v", qi, ferr, werr)
		}
		if ferr != nil {
			if !strings.Contains(ferr.Error(), "exceeds limit") {
				t.Fatalf("query %d: %v", qi, ferr)
			}
			continue
		}
		if fa.Eta != wa.Eta || fa.Exact != wa.Exact || fa.Rel.Len() != wa.Rel.Len() {
			t.Fatalf("query %d: fresh (eta=%g exact=%v rows=%d) vs warm (eta=%g exact=%v rows=%d)",
				qi, fa.Eta, fa.Exact, fa.Rel.Len(), wa.Eta, wa.Exact, wa.Rel.Len())
		}
		for i := range fa.Rel.Tuples {
			if fa.Rel.Tuples[i].Key() != wa.Rel.Tuples[i].Key() {
				t.Fatalf("query %d: answer row %d differs: %v vs %v", qi, i, fa.Rel.Tuples[i], wa.Rel.Tuples[i])
			}
		}
	}

	// Populating on top of restored tuples must refuse: it would silently
	// double the dataset.
	if err := shell2.Populate(seed); err == nil {
		t.Fatal("Populate on a snapshot-restored dataset should fail")
	}
}

// The crash half of the acceptance property: maintenance lands in the WAL,
// the process "dies" mid-append (the log loses its final, torn record), and
// the recovered system answers the whole corpus byte-identically to an
// in-memory system that applied exactly the surviving prefix.
func TestWarmStartAfterCrashRecovery(t *testing.T) {
	ctx := context.Background()
	ops := mutationOps(20)
	// The subtest keeps the name it had when ladders could be split into
	// shards: one group map per ladder is the layout shards=1 pinned.
	t.Run("shards=1", func(t *testing.T) {
		dir := t.TempDir()
		builder := fixture.SchemaA0
		sys, err := beas.OpenPersisted(ctx, corpusDB(), dir,
			beas.WithSchemaBuilder(builder),
			beas.WithCheckpointEvery(-1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Apply(ctx, ops); err != nil {
			t.Fatalf("apply: %v", err)
		}
		// Crash: no checkpoint. Tear the last WAL record by dropping the
		// file's final byte, losing exactly the last operation.
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(dir, persist.WALFile)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}

		recovered, err := beas.OpenPersisted(ctx, corpusDB(), dir,
			beas.WithSchemaBuilder(builder))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer recovered.Close()
		ps := recovered.PersistStats()
		if !ps.WarmStart || ps.Replayed != int64(len(ops)-1) {
			t.Fatalf("recovery stats: %+v, want warm with %d replayed", ps, len(ops)-1)
		}

		// Ground truth: a never-persisted system applying the prefix.
		db := corpusDB()
		as, err := builder(db)
		if err != nil {
			t.Fatal(err)
		}
		fresh := beas.Open(db, as)
		if _, err := fresh.Apply(ctx, ops[:len(ops)-1]); err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, "crash-recovery", fresh, recovered)
	})
}
