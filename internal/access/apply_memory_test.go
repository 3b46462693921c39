package access_test

import (
	"runtime"
	"testing"
)

// A steady-state write batch builds in the memory the schema keeps from
// the batch before. On TPCH sf 8 (16,000 lineitem rows) a batch allocates
// at most 4.5 MB (10.4 MB when every batch made its own kd-tree
// scratches; 3.5 MB measured), and the first batch grows the live heap by
// at most 5.0 MB: 1.3 MB of item-store and arena growth that fresh build
// memory shows too, and 3.2 MB of kept build memory, most of it the At
// group's nodes, maxDist rows, sort records and level rows (4.5 MB
// measured). The kept memory is ~180 bytes per row of the largest group:
// at sf 64 (128,000 lineitem rows) one batch grows the live heap by
// 31.0 MB against 7.9 MB with fresh build memory, and allocates 13.5 MB
// against 63.5 MB.
func TestApplyBatchMemory(t *testing.T) {
	const (
		maxAlloc  = 4.5 * (1 << 20)
		maxGrowth = 5.0 * (1 << 20)
	)
	d, s, batch := steadyWrites(t, 8, true)
	ops := batch()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	applySteady(t, s, d.DB, ops)
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap %.1f MB → %.1f MB after one batch", float64(before.HeapAlloc)/(1<<20), float64(after.HeapAlloc)/(1<<20))
	if growth > maxGrowth {
		t.Errorf("one batch grew the live heap by %.2f MB, want at most %.1f MB", float64(growth)/(1<<20), float64(maxGrowth)/(1<<20))
	}

	const batches = 4
	applySteady(t, s, d.DB, batch())
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		applySteady(t, s, d.DB, batch())
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / batches
	t.Logf("%.2f MB allocated per steady-state batch", perBatch/(1<<20))
	if !raceEnabled && perBatch > maxAlloc {
		t.Errorf("a steady-state batch allocates %.2f MB, want at most %.1f MB", perBatch/(1<<20), maxAlloc/(1<<20))
	}
	runtime.KeepAlive(s)
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
