package access_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/workload"
)

// BenchmarkFetchBatchBlocks is the directory's read path: one batch of 1000
// shuffled X-values against the largest ladder of the TPCH sf=8 schema that
// has that many groups, at its exact level — the batch the benchmark's
// access.fetch_batch_us probe times.
func BenchmarkFetchBatchBlocks(b *testing.B) {
	s, err := workload.TPCH(8, 3).AccessSchema()
	if err != nil {
		b.Fatal(err)
	}
	big := s.Ladders[0]
	for _, l := range s.Ladders {
		if l.NumGroups() >= 1000 && (big.NumGroups() < 1000 || l.IndexSize() > big.IndexSize()) {
			big = l
		}
	}
	xs := big.GroupXs()
	sort.Slice(xs, func(i, j int) bool { return xs[i].Key() < xs[j].Key() })
	rand.New(rand.NewSource(3)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	xs = xs[:min(len(xs), 1000)]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetchSink = big.FetchBatchBlocks(xs, big.MaxK(), 1)
	}
}

// fetchSink keeps the benchmarked call's result alive.
var fetchSink []*access.LevelBlock
