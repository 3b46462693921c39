package access_test

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/workload"
)

// BenchmarkApplyBatch is the maintenance cost of a write-bearing deployment:
// one Apply of 25 lineitem inserts and 25 deletes of the rows the previous
// batch inserted (|D| steady) against the TPCH sf=8 schema — At plus the
// thirteen workload ladders, four of them over lineitem.
func BenchmarkApplyBatch(b *testing.B) {
	d := workload.TPCH(8, 1)
	s, err := d.AccessSchema()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	orders, parts, supps := d.DB.MustRelation("orders").Len(), d.DB.MustRelation("part").Len(), d.DB.MustRelation("supplier").Len()
	batch := func(prev []relation.Tuple) ([]access.Op, []relation.Tuple) {
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
		return ops, rows
	}
	ops, prev := batch(nil)
	if _, err := s.Apply(d.DB, ops); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, prev = batch(prev)
		applied, err := s.Apply(d.DB, ops)
		if err != nil {
			b.Fatal(err)
		}
		for j, ok := range applied {
			if !ok {
				b.Fatalf("op %d of a steady-state batch did not apply", j)
			}
		}
	}
}
