// Cluster latency harness: the HTTP serving path of internal/serve measured
// with the coordinator's batched fetches routed over the internal/cluster
// RPC to ring-assigned peers. Where httpbench.go times the in-process
// scatter-gather, this file times what a client observes when the same
// fetches cross real sockets — the wire cost of the network layer and how
// it moves with the node count. `beasbench -cluster -out BENCH_9.json`
// emits the tracked report; entries are named cluster_query_nodes_N and
// cluster_batch_nodes_N.
package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"

	beas "repro"
	"repro/internal/cluster"
	"repro/internal/fixture"
	"repro/internal/serve"
)

// clusterBenchShards is the ladder shard count of every cluster pass: the
// ring routes X-values by the same hash at any shard count, so one value
// keeps the sweep about node count, not partitioning.
const clusterBenchShards = 2

func defaultClusterBenchConfig(smoke bool) httpBenchConfig {
	if smoke {
		return httpBenchConfig{persons: 100, pois: 200, queries: 24, batches: 3, batchSize: 4, workers: 2, alpha: 0.5}
	}
	return httpBenchConfig{persons: 1500, pois: 8000, queries: 600, batches: 60, batchSize: 8, workers: 8, alpha: 0.5}
}

// handlerSwap lets an httptest server exist (supplying its peer URL) before
// the node whose handler it serves is constructed.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

// ServeHTTP forwards to the installed handler, answering 503 until one is
// set.
func (hs *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hs.mu.RLock()
	h := hs.h
	hs.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (hs *handlerSwap) set(h http.Handler) {
	hs.mu.Lock()
	hs.h = h
	hs.mu.Unlock()
}

// RunClusterPerf measures the cluster-routed serving path for node counts
// 1, 2 and 3. The 1-node pass is the wire-format floor (every fetch routes
// locally but still flows through the routed Fetcher's batch path), so
// nodes_2/nodes_3 minus nodes_1 isolates the RPC cost.
func RunClusterPerf(label string, smoke bool) (*PerfRun, error) {
	run := newPerfRun(label)
	cfg := defaultClusterBenchConfig(smoke)
	for _, n := range []int{1, 2, 3} {
		lat, err := measureCluster(cfg, n)
		if err != nil {
			return nil, err
		}
		run.Latency = append(run.Latency, lat...)
	}
	return run, nil
}

// measureCluster brings up n cluster nodes on loopback listeners, wraps
// node 0 in a serve.Server whose executor fans fetches through the routed
// Fetcher, and measures /query and /batch latency under concurrent mixed
// traffic. Multi-node passes verify that fetches actually crossed the wire
// so the numbers cannot silently degenerate to the local path.
func measureCluster(cfg httpBenchConfig, n int) ([]PerfLatency, error) {
	db := fixture.Example1(5, cfg.persons, cfg.pois)
	as, err := fixture.SchemaA0Sharded(db, clusterBenchShards)
	if err != nil {
		return nil, err
	}

	ids := make([]string, n)
	swaps := make([]*handlerSwap, n)
	servers := make([]*httptest.Server, n)
	members := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ids[i] = "node-" + strconv.Itoa(i)
		swaps[i] = &handlerSwap{}
		servers[i] = httptest.NewServer(swaps[i])
		members[ids[i]] = servers[i].URL
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	nodes := make([]*cluster.Node, n)
	for i := 0; i < n; i++ {
		node, err := cluster.New(cluster.Config{NodeID: ids[i], Peers: members, Schema: as})
		if err != nil {
			return nil, err
		}
		defer node.Close()
		nodes[i] = node
	}

	srv, err := serve.New(serve.Config{
		System:       beas.Open(db, as),
		DefaultAlpha: cfg.alpha,
		MaxRows:      100,
		ExecOptions:  []beas.Option{beas.WithRemoteFetcher(nodes[0].Fetcher())},
		Cluster:      nodes[0],
		Dataset:      "example1",
		DBSize:       db.Size(),
		Relations:    len(db.Names()),
		Shards:       clusterBenchShards,
		// Same rationale as measureHTTP: latency is measured, not admission.
		BudgetCap: cfg.batches * cfg.batchSize * db.Size(),
		Brownout:  serve.BrownoutConfig{Mode: "off"},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// Node 0 serves the public API and /internal/fetch off one listener —
	// the beasd deployment shape; the peers serve only the fetch RPC.
	swaps[0].set(srv.Handler())
	for i := 1; i < n; i++ {
		swaps[i].set(nodes[i].Handler())
	}

	suffix := fmt.Sprintf("nodes_%d", n)
	lat, err := measureServeTraffic(cfg, servers[0].URL, "cluster", suffix)
	if err != nil {
		return nil, err
	}
	for i := range lat {
		lat[i].Shards = clusterBenchShards
	}
	if n > 1 {
		var remote int64
		for _, node := range nodes {
			remote += node.RemoteXs()
		}
		if remote == 0 {
			return nil, fmt.Errorf("bench: cluster %s: no fetch crossed the wire; the pass is vacuous", suffix)
		}
	}
	return lat, nil
}
