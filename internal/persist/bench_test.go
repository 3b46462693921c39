package persist

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/relation"
)

// benchDB is an ~11k-tuple Example 1 instance: index construction is
// O(n log² n) per group while a snapshot load is linear, so a thimble-sized
// dataset under-reports what a restart actually costs.
func benchDB() *relation.Database { return fixture.Example1(5, 900, 7500) }

// BenchmarkColdBuild is the baseline a warm start avoids: full access-schema
// construction from the raw relations.
func BenchmarkColdBuild(b *testing.B) {
	db := benchDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fixture.SchemaA0(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmLoad restores the same schema from a snapshot.
func BenchmarkWarmLoad(b *testing.B) {
	ctx := context.Background()
	db := benchDB()
	as, err := fixture.SchemaA0(db)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := Save(ctx, db, as, dir); err != nil {
		b.Fatal(err)
	}
	// Load replaces relation contents wholesale, so reloading into the same
	// database is exactly a restart's work; fresh fixtures per iteration
	// would only inflate the live heap the GC scans.
	target := benchDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(ctx, target, dir); err != nil {
			b.Fatal(err)
		}
	}
}
