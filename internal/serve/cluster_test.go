package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	beas "repro"
	"repro/internal/cluster"
	"repro/internal/fixture"
)

// clusterServer builds a 2-node cluster whose coordinator is wrapped in a
// serve.Server (Cluster set, Fetcher in ExecOptions). It returns the server
// and the peer's HTTP listener so tests can kill it.
func clusterServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	db := fixture.Example1(11, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := httptest.NewServer(nil) // handler installed below
	nodeB, err := cluster.New(cluster.Config{
		NodeID: "b", Peers: map[string]string{"a": "http://unused.invalid"}, Schema: as,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv.Config.Handler = nodeB.Handler()

	nodeA, err := cluster.New(cluster.Config{
		NodeID:           "a",
		Peers:            map[string]string{"b": peerSrv.URL},
		Schema:           as,
		FetchTimeout:     500 * time.Millisecond,
		Retries:          1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooloff:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		System:       beas.Open(db, as),
		DefaultAlpha: 0.2,
		Dataset:      "example1",
		DBSize:       db.Size(),
		ExecOptions:  []beas.Option{beas.WithRemoteFetcher(nodeA.Fetcher())},
		Cluster:      nodeA,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); nodeA.Close(); nodeB.Close(); peerSrv.Close() })
	return s, peerSrv
}

// clusterQueries fan X-values wide enough that some fetch must route to the
// peer under the 2-node ring.
var clusterQueries = []string{
	`{"sql": "select p.city from person as p where p.pid = 3", "alpha": 0.5}`,
	`{"sql": "select f.fid from friend as f", "alpha": 0.5}`,
	`{"sql": "select poi.type, poi.price from poi", "alpha": 0.5}`,
}

// TestClusterServeHealthy pins the happy path: with the peer up, queries
// answer 200 through the routed fetcher, /readyz is ready, and /stats
// carries the ring assignment and the routed fetches.
func TestClusterServeHealthy(t *testing.T) {
	s, _ := clusterServer(t)
	for _, body := range clusterQueries {
		rec, _ := postQuery(t, s, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("query answered %d: %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz %d with healthy peer: %s", rec.Code, rec.Body)
	}
	st := statsBody(t, s)
	shares, _ := st["beas_cluster_ring_share"].(map[string]any)
	if stat(t, st, "beas_cluster_nodes") != 2 || len(shares) != 2 {
		t.Fatalf("cluster ring malformed: nodes %v, shares %v", st["beas_cluster_nodes"], shares)
	}
	if stat(t, st, "beas_cluster_remote_xs_total") == 0 || stat(t, st, "beas_cluster_peer_fetches_total", "b") == 0 {
		t.Fatalf("no remote fetches recorded; routing did not engage: %v", st)
	}
}

// TestClusterServePeerDown is the serving half of the degraded path: with
// the peer killed, queries that must route remotely answer 502 (the typed
// *cluster.PeerError — never a silently partial 200), /readyz turns 503
// naming the peer, and /stats shows the open circuit.
func TestClusterServePeerDown(t *testing.T) {
	s, peerSrv := clusterServer(t)
	peerSrv.Close()

	saw502 := false
	for _, body := range clusterQueries {
		rec, _ := postQuery(t, s, body)
		switch rec.Code {
		case http.StatusBadGateway:
			saw502 = true
			if !strings.Contains(rec.Body.String(), "peer b") {
				t.Fatalf("502 body does not name the peer: %s", rec.Body)
			}
		case http.StatusOK:
			// Served fully locally; acceptable — correctness is covered by
			// the invariance and killed-peer corpus tests.
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body)
		}
	}
	if !saw502 {
		t.Fatal("no query hit the dead peer; test is vacuous")
	}

	rec := httptest.NewRecorder()
	s.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with dead peer, want 503: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "cluster peer b") {
		t.Fatalf("readyz reasons do not name the peer: %s", rec.Body)
	}

	st := statsBody(t, s)
	if stat(t, st, "beas_cluster_peer_circuit_open", "b") != 1 || stat(t, st, "beas_cluster_peer_failures_total", "b") == 0 {
		t.Fatalf("stats do not surface the dead peer: %v", st)
	}
}
