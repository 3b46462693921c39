package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// handlerHolder breaks the construction cycle between httptest servers
// (which exist first, supplying peer URLs) and the nodes whose Handler they
// ultimately serve.
type handlerHolder struct {
	mu sync.RWMutex
	h  http.Handler
}

func (hh *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hh.mu.RLock()
	h := hh.h
	hh.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (hh *handlerHolder) set(h http.Handler) {
	hh.mu.Lock()
	hh.h = h
	hh.mu.Unlock()
}

// testCluster is N in-process nodes over one shared schema, wired to each
// other through real HTTP (httptest).
type testCluster struct {
	nodes   []*Node
	servers []*httptest.Server
}

func (tc *testCluster) close() {
	for _, s := range tc.servers {
		s.Close()
	}
	for _, n := range tc.nodes {
		n.Close()
	}
}

// startCluster brings up n nodes sharing one read-only schema, each serving
// /internal/fetch on its own listener. cfg tweaks (timeouts, client) apply
// to every node.
func startCluster(t *testing.T, n int, schema *access.Schema, tweak func(*Config)) *testCluster {
	t.Helper()
	ids := make([]string, n)
	holders := make([]*handlerHolder, n)
	servers := make([]*httptest.Server, n)
	members := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ids[i] = string(rune('a'+i)) + "-node"
		holders[i] = &handlerHolder{}
		servers[i] = httptest.NewServer(holders[i])
		members[ids[i]] = servers[i].URL
	}
	tc := &testCluster{servers: servers}
	for i := 0; i < n; i++ {
		cfg := Config{NodeID: ids[i], Peers: members, Schema: schema}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			tc.close()
			t.Fatalf("node %d: %v", i, err)
		}
		holders[i].set(node.Handler())
		tc.nodes = append(tc.nodes, node)
	}
	return tc
}

// relKeys returns the canonical sorted multiset encoding of a relation.
func relKeys(r *relation.Relation) []string {
	out := make([]string, 0, r.Len())
	for _, t := range r.Tuples {
		out = append(out, t.Key())
	}
	sort.Strings(out)
	return out
}

// TestClusterInvariance is the tentpole differential guard of the network
// layer: over the same 200-case randomized corpus as the golden digest
// suite, clusters of N ∈ {1, 2, 3} nodes — every query coordinated by a
// rotating node whose routed Fetcher fans the executor's batched fetches
// over real HTTP to ring-assigned peers — must produce answers, η,
// exactness, budget consumption (Stats.Accessed) and truncation
// byte-identical to the single-process reference. The network may only
// change where a fetch is served, never what it returns or what it costs
// against α·|D|. The run asserts remote fetches actually happened — the
// invariance is not vacuously local — and that some case ran its leaves
// concurrently while fetching through the remote fetcher, so concurrent
// leaves sharing one router are covered too.
func TestClusterInvariance(t *testing.T) {
	const cases = 200
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: no cluster anywhere.
	refAS, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(db, refAS)

	// One engine per cluster size; the per-call Fetcher picks the
	// coordinating node, so one engine serves all coordinators of a size.
	type setup struct {
		n      int
		tc     *testCluster
		scheme *core.Scheme
	}
	var setups []setup
	for _, n := range []int{1, 2, 3} {
		tc := startCluster(t, n, as, nil)
		defer tc.close()
		setups = append(setups, setup{n, tc, core.New(db, as)})
	}

	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	concurrentRemote := 0
	for ci := 0; ci < cases; ci++ {
		q := g.Query()
		alpha := alphas[ci%len(alphas)]
		wantAns, _, wantErr := ref.AnswerContext(ctx, q, core.ExecOptions{Alpha: alpha})
		for _, sc := range setups {
			coord := sc.tc.nodes[ci%sc.n]
			routed := remoteXs(sc.tc)
			tr := obs.NewTrace("query")
			gotAns, _, gotErr := sc.scheme.AnswerContext(ctx, q, core.ExecOptions{
				Alpha:   alpha,
				Fetcher: coord.Fetcher(),
				Trace:   tr,
			})
			if leafMode(tr) == "par" && remoteXs(sc.tc) > routed {
				concurrentRemote++
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("case %d nodes=%d: error mismatch: ref %v, got %v\n%s",
					ci, sc.n, wantErr, gotErr, query.Render(q))
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("case %d nodes=%d: error text diverged: %q vs %q", ci, sc.n, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) {
				t.Fatalf("case %d nodes=%d: answers diverged\n%s", ci, sc.n, query.Render(q))
			}
			if wantAns.Eta != gotAns.Eta || wantAns.Exact != gotAns.Exact {
				t.Fatalf("case %d nodes=%d: eta/exact diverged: (%v, %v) vs (%v, %v)",
					ci, sc.n, wantAns.Eta, wantAns.Exact, gotAns.Eta, gotAns.Exact)
			}
			if wantAns.Stats.Accessed != gotAns.Stats.Accessed || wantAns.Stats.Truncated != gotAns.Stats.Truncated {
				t.Fatalf("case %d nodes=%d: budget consumption diverged: accessed %d/%v vs %d/%v\n%s",
					ci, sc.n, wantAns.Stats.Accessed, wantAns.Stats.Truncated,
					gotAns.Stats.Accessed, gotAns.Stats.Truncated, query.Render(q))
			}
		}
	}

	// Non-vacuity: the multi-node clusters must have served real remote
	// fetches over the wire, or the test proved nothing about the network.
	for _, sc := range setups {
		if sc.n == 1 {
			continue
		}
		var served uint64
		for _, node := range sc.tc.nodes {
			served += node.served.Value()
		}
		if remote := remoteXs(sc.tc); served == 0 || remote == 0 {
			t.Fatalf("nodes=%d: no remote fetches happened (served=%d routed=%d); invariance was vacuous",
				sc.n, served, remote)
		}
	}
	if concurrentRemote == 0 {
		t.Fatal("no case ran its leaves concurrently through the remote fetcher")
	}
	t.Logf("%d calls ran concurrent leaves over remote fetches", concurrentRemote)
}

// remoteXs sums the X-values the cluster's nodes have routed to peers.
func remoteXs(tc *testCluster) uint64 {
	var n uint64
	for _, node := range tc.nodes {
		n += node.remoteXs.Value()
	}
	return n
}

// leafMode returns the "mode" attribute of the trace's first leaf span:
// "par" when the call ran its leaves concurrently, "seq" when in order.
func leafMode(tr *obs.Trace) any {
	for _, a := range tr.Root().Find("leaf").Attrs() {
		if a.Key == "mode" {
			return a.Val
		}
	}
	return nil
}
