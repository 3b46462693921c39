package access_test

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/workload"
)

// steadyWrites returns TPCH at scale sf with its access schema — At plus
// the thirteen workload ladders, four of them over lineitem — and a
// generator of steady-state write batches: 25 lineitem inserts, then 25
// deletes of the rows the previous batch inserted (|D| steady). The first
// batch deletes 25 stored rows when seedDeletes is set, and nothing
// otherwise.
func steadyWrites(tb testing.TB, sf int, seedDeletes bool) (*workload.Dataset, *access.Schema, func() []access.Op) {
	d := workload.TPCH(sf, 1)
	s, err := d.AccessSchema()
	if err != nil {
		tb.Fatal(err)
	}
	var prev []relation.Tuple
	if stored := d.DB.MustRelation("lineitem").Tuples; seedDeletes {
		for i := 0; i < 25; i++ {
			prev = append(prev, stored[i*len(stored)/25].Clone())
		}
	}
	rng := rand.New(rand.NewSource(2))
	orders, parts, supps := d.DB.MustRelation("orders").Len(), d.DB.MustRelation("part").Len(), d.DB.MustRelation("supplier").Len()
	return d, s, func() []access.Op {
		rows := make([]relation.Tuple, 25)
		ops := make([]access.Op, 0, 50)
		for i := range rows {
			rows[i] = relation.Tuple{
				relation.Int(int64(rng.Intn(orders))), relation.Int(int64(rng.Intn(parts))),
				relation.Int(int64(rng.Intn(supps))), relation.Int(int64(1 + rng.Intn(50))),
				relation.Float(100 + rng.Float64()*100000), relation.Float(rng.Float64() * 0.1),
				relation.Int(int64(rng.Intn(2556))),
			}
			ops = append(ops, access.Op{Kind: access.OpInsert, Rel: "lineitem", Tuple: rows[i]})
		}
		for _, t := range prev {
			ops = append(ops, access.Op{Kind: access.OpDelete, Rel: "lineitem", Tuple: t})
		}
		prev = rows
		return ops
	}
}

// applySteady applies one batch and fails unless every op applied.
func applySteady(tb testing.TB, s *access.Schema, db *relation.Database, ops []access.Op) {
	applied, err := s.Apply(db, ops)
	if err != nil {
		tb.Fatal(err)
	}
	for j, ok := range applied {
		if !ok {
			tb.Fatalf("op %d of a steady-state batch did not apply", j)
		}
	}
}

// BenchmarkApplyBatch is the maintenance cost of a write-bearing deployment:
// one steady-state Apply of 50 lineitem ops (steadyWrites) against the TPCH
// sf=8 schema.
func BenchmarkApplyBatch(b *testing.B) {
	d, s, batch := steadyWrites(b, 8, false)
	if _, err := s.Apply(d.DB, batch()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applySteady(b, s, d.DB, batch())
	}
}
