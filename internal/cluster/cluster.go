// Package cluster is the multi-node serving layer of the BEAS
// reproduction: it spreads the ladder groups of internal/access over a
// static set of nodes and routes each fetch-step batch to the groups'
// owners.
//
// A consistent-hash ring (Ring) assigns ladder groups — keyed by the
// canonical X-value hash (relation.Tuple.Hash) that also keys a ladder's
// group map, folded with the owning ladder's identity — to a static set of
// named nodes. Every node
// holds the full deterministic dataset and index build, but the routing
// layer enforces ownership: a Fetcher resolves each fetch-step batch by
// splitting its X-values between the local ladder and per-peer
// /internal/fetch RPCs, whose wire format reuses the fuzz-hardened columnar
// block codec of internal/relation (frame.go adds only the envelope). The
// executor's budget accounting stays sequential in first-seen enumeration
// order over the returned views (plan.ExecOpts.Fetcher), which is exactly
// what makes N-node answers byte-identical to 1-node answers — asserted
// over the 200-case soundness corpus by TestClusterInvariance.
//
// Failure semantics: remote fetches carry per-call deadlines, capped
// exponential-backoff retries and a per-peer circuit breaker. A fetch that
// cannot be completed aborts the query with a typed *PeerError — never a
// silently wrong or partial answer — and an open circuit surfaces through
// Node.Ready (the /readyz reasons list) and the per-peer series of
// Node.RegisterMetrics. Handler panics are contained by internal/guard.
package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/access"
	"repro/internal/guard"
	"repro/internal/obs"
)

// FetchPath is the internal RPC route every node serves and dials.
const FetchPath = "/internal/fetch"

// maxFrameBytes caps one request or response frame; internal peers never
// legitimately exceed it, and the bound keeps a corrupt length from
// ballooning memory.
const maxFrameBytes = 1 << 28

// Config assembles one cluster node. NodeID and Schema are required; zero
// values elsewhere get the documented defaults.
type Config struct {
	// NodeID names this node in the ring. Every node of one cluster must
	// use the same ID set (NodeID plus the Peers keys) or routing diverges.
	NodeID string
	// Peers maps peer node IDs to their base URLs ("http://host:port").
	// An entry for NodeID itself is ignored, so the full static member
	// list can be passed symmetrically on every node. Empty means a
	// single-node cluster: every fetch resolves locally.
	Peers map[string]string
	// Schema is this node's access schema; the node serves fetches for the
	// ladders it holds and routes the rest by ring ownership.
	Schema *access.Schema
	// FetchTimeout is the per-RPC deadline (default 2s).
	FetchTimeout time.Duration
	// Retries is how many times a failed RPC is retried before the call
	// fails with a *PeerError (default 2).
	Retries int
	// RetryBackoff is the initial retry delay, doubled per attempt and
	// capped at 500ms (default 10ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive post-retry failures after which a
	// peer's circuit opens (default 3).
	BreakerThreshold int
	// BreakerCooloff is how long an open circuit fails fast before the next
	// probe is allowed through (default 1s).
	BreakerCooloff time.Duration
	// Client issues the RPCs (default: a pooled http.Client). Tests inject
	// failing transports here — the faultfs-style seam of this package.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	return c
}

// Node is one member of a static beas cluster: it owns the ladder groups
// the ring assigns to it, serves them to peers over /internal/fetch, and
// routes everything else through its Fetcher. Safe for concurrent use.
type Node struct {
	cfg     Config
	ring    *Ring
	ladders map[string]ladderEntry
	peers   map[string]*peer
	// order is the sorted peer-ID list, for deterministic error selection
	// and stats rendering.
	order []string

	// Routing and serving counters are registry instruments (see
	// RegisterMetrics): /metrics and /stats render these same atomics.
	served     obs.Counter // /internal/fetch requests answered
	servedRows obs.Counter // sample rows shipped to peers
	localXs    obs.Counter // X-values resolved from the local ladders
	remoteXs   obs.Counter // X-values routed to peers
}

// ladderEntry pairs a ladder with its precomputed identity hash.
type ladderEntry struct {
	l    *access.Ladder
	hash uint64
}

// New validates the configuration, builds the ring over the full member
// set and indexes the schema's ladders by identity.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("cluster: Schema is required")
	}
	ids := []string{cfg.NodeID}
	peers := make(map[string]*peer, len(cfg.Peers))
	for id, url := range cfg.Peers {
		if id == cfg.NodeID {
			continue
		}
		if id == "" || url == "" {
			return nil, fmt.Errorf("cluster: peer entries need both an ID and a URL (got %q -> %q)", id, url)
		}
		ids = append(ids, id)
		peers[id] = &peer{id: id, url: url}
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, ring: ring, peers: peers, ladders: make(map[string]ladderEntry, cfg.Schema.Size())}
	for _, l := range cfg.Schema.Ladders {
		id := LadderID(l)
		if _, dup := n.ladders[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate ladder identity %q", id)
		}
		n.ladders[id] = ladderEntry{l: l, hash: hash64(id)}
	}
	for id := range peers {
		n.order = append(n.order, id)
	}
	sort.Strings(n.order)
	return n, nil
}

// NodeID returns this node's ring identity.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// Ring returns the node's consistent-hash ring (shared, immutable).
func (n *Node) Ring() *Ring { return n.ring }

// Close releases the node's idle RPC connections.
func (n *Node) Close() {
	n.cfg.Client.CloseIdleConnections()
}

// Handler returns the node's internal RPC mux, serving FetchPath. Mount it
// on the same listener as the public API (internal/serve does this when
// Config.Cluster is set) or on a dedicated one.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(FetchPath, n.handleFetch)
	return mux
}

// handleFetch answers one FetchBatchBlocks-shaped RPC: decode the request frame,
// resolve every X-value against the named ladder's FULL level views (the
// caller budget-accounts; see RemoteFetcher's contract), encode the
// response with the block codec. Corrupt frames answer 400 with the typed
// reason; a panic anywhere is contained to a 500 by internal/guard.
func (n *Node) handleFetch(w http.ResponseWriter, r *http.Request) {
	var err error
	defer func() {
		// Contain after-the-fact: guard.Recover filled err from a panic.
		if err != nil {
			if _, isPanic := guard.AsPanic(err); isPanic {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	}()
	defer guard.Recover("cluster fetch", &err)

	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, readErr := io.ReadAll(io.LimitReader(r.Body, maxFrameBytes+1))
	if readErr != nil {
		http.Error(w, readErr.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxFrameBytes {
		http.Error(w, "request frame too large", http.StatusRequestEntityTooLarge)
		return
	}
	req, decErr := DecodeFetchRequest(body)
	if decErr != nil {
		http.Error(w, decErr.Error(), http.StatusBadRequest)
		return
	}
	ent, ok := n.ladders[req.LadderID]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown ladder %q", req.LadderID), http.StatusNotFound)
		return
	}
	if req.Width != len(ent.l.X) {
		http.Error(w, fmt.Sprintf("ladder %q has X arity %d, request sent %d",
			req.LadderID, len(ent.l.X), req.Width), http.StatusBadRequest)
		return
	}
	lvls := ent.l.FetchBatchBlocks(req.Xs, req.K, 1)
	rows := 0
	for _, lvl := range lvls {
		if lvl != nil {
			rows += lvl.Rows()
		}
	}
	n.served.Inc()
	n.servedRows.Add(uint64(rows))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(AppendFetchResponse(nil, lvls))
}
