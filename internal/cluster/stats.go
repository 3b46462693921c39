package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// RegisterMetrics binds the node's ring assignment, routing counters and
// per-peer client state into reg: the counters are the node's own atomics,
// and the circuit/p95 series are computed at scrape time from the breaker
// state.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	reg.Gauge("beas_cluster_nodes", "Nodes in the cluster ring, this one included.").Set(int64(len(n.order) + 1))
	for node, share := range n.ring.Shares() {
		reg.GaugeFuncVec("beas_cluster_ring_share", "Share of the group keyspace each node owns.", "node", node,
			func() float64 { return share })
	}
	reg.RegisterCounter("beas_cluster_served_fetches_total",
		"Cluster fetch RPCs answered for peers.", &n.served)
	reg.RegisterCounter("beas_cluster_served_rows_total",
		"Sample rows shipped to peers over fetch RPCs.", &n.servedRows)
	reg.RegisterCounter("beas_cluster_local_xs_total",
		"X-value fetches resolved from local ladders.", &n.localXs)
	reg.RegisterCounter("beas_cluster_remote_xs_total",
		"X-value fetches routed to peers.", &n.remoteXs)
	for _, id := range n.order {
		p := n.peers[id]
		reg.RegisterCounterIn("beas_cluster_peer_fetches_total",
			"Completed fetch RPC calls per peer (success or final failure).", "peer", id, &p.fetches)
		reg.RegisterCounterIn("beas_cluster_peer_retries_total",
			"Retried fetch RPC attempts per peer.", "peer", id, &p.retries)
		reg.RegisterCounterIn("beas_cluster_peer_failures_total",
			"Fetch RPC calls failed past the retry budget per peer.", "peer", id, &p.failures)
		reg.RegisterCounterIn("beas_cluster_peer_fast_fails_total",
			"Fetch RPC calls rejected by an open circuit per peer.", "peer", id, &p.fastFails)
		reg.GaugeFuncVec("beas_cluster_peer_circuit_open",
			"Whether the peer's circuit breaker is currently open (0/1).", "peer", id,
			func() float64 {
				if open, _ := p.circuitOpen(time.Now()); open {
					return 1
				}
				return 0
			})
		reg.GaugeFuncVec("beas_cluster_peer_p95_micros",
			"95th-percentile successful fetch RPC latency per peer, microseconds.", "peer", id,
			func() float64 { return float64(p.p95Micros()) })
	}
}

// RemoteXs returns how many X-value fetches this node's Fetcher routed to
// peers over the wire. Harnesses use it to assert a multi-node measurement
// did not silently degenerate to the local path.
func (n *Node) RemoteXs() int64 { return int64(n.remoteXs.Value()) }

// Ready returns the reasons this node is NOT ready to serve cluster-routed
// queries — one entry per peer whose circuit breaker is open (i.e. the
// peer stayed unreachable past the retry budget). Empty means ready;
// internal/serve folds these into /readyz's 503 reasons.
func (n *Node) Ready() []string {
	now := time.Now()
	var reasons []string
	for _, id := range n.order {
		if open, fails := n.peers[id].circuitOpen(now); open {
			reasons = append(reasons, fmt.Sprintf(
				"cluster peer %s unreachable: circuit open after %d consecutive failed fetches", id, fails))
		}
	}
	return reasons
}
