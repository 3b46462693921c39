package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// fastFail shortens every retry/backoff knob so failure tests converge in
// milliseconds.
func fastFail(cfg *Config) {
	cfg.FetchTimeout = 500 * time.Millisecond
	cfg.Retries = 1
	cfg.RetryBackoff = time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooloff = time.Hour // stays open for the rest of the test
}

// TestPeerRefusedConnection covers the hard-down peer: the remote listener
// is closed before any call, so every routed fetch must fail with a typed
// *PeerError (never a wrong or partial answer), the breaker must open, and
// the node must report not-ready with the peer named.
func TestPeerRefusedConnection(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, as, fastFail)
	defer tc.close()
	tc.servers[1].Close() // peer b-node refuses connections from the start

	scheme := core.New(db, as)
	g := corpus.NewGenerator(7)
	peerErrs, successes := 0, 0
	for ci := 0; ci < 30; ci++ {
		q := g.Query()
		_, _, err := scheme.AnswerContext(context.Background(), q, core.ExecOptions{
			Alpha: 0.2, Fetcher: tc.nodes[0].Fetcher(),
		})
		if err == nil {
			successes++ // resolved fully locally or planner-cached
			continue
		}
		var pe *PeerError
		if errors.As(err, &pe) {
			if pe.Node != "b-node" {
				t.Fatalf("case %d: PeerError names %q, want b-node", ci, pe.Node)
			}
			peerErrs++
			continue
		}
		// Planner/validation errors are fine (the same query fails locally
		// with the same text); anything else leaks an untyped failure.
		_, _, localErr := scheme.AnswerContext(context.Background(), q, core.ExecOptions{Alpha: 0.2})
		if localErr == nil || localErr.Error() != err.Error() {
			t.Fatalf("case %d: untyped error from downed peer: %v (local: %v)", ci, err, localErr)
		}
	}
	if peerErrs == 0 {
		t.Fatal("no query was routed to the downed peer; test is vacuous")
	}
	if reasons := tc.nodes[0].Ready(); len(reasons) == 0 || !strings.Contains(reasons[0], "b-node") {
		t.Fatalf("node not reporting the open circuit: %v", reasons)
	}
	reg := obs.NewRegistry()
	tc.nodes[0].RegisterMetrics(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `beas_cluster_peer_circuit_open{peer="b-node"} 1`) {
		t.Fatalf("metrics do not show the open circuit:\n%s", text.String())
	}
}

// TestKilledPeerMidCorpus is the acceptance run: a peer dies in the middle
// of the corpus. Every case must either match the single-process reference
// byte-identically or fail with ONLY a typed *PeerError — zero wrong or
// silently partial answers — and the coordinator must leave the run
// not-ready with failures on record.
func TestKilledPeerMidCorpus(t *testing.T) {
	const cases = 90
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	refAS, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(db, refAS)

	tc := startCluster(t, 2, as, fastFail)
	defer tc.close()
	scheme := core.New(db, as)

	g := corpus.NewGenerator(42)
	peerErrs := 0
	for ci := 0; ci < cases; ci++ {
		if ci == cases/3 {
			tc.servers[1].Close() // kill the peer mid-corpus
		}
		q := g.Query()
		wantAns, _, wantErr := ref.AnswerContext(ctx, q, core.ExecOptions{Alpha: 0.2})
		// The call bypasses the plan cache: a killed peer must not be
		// masked by replayed plans.
		gotAns, _, gotErr := scheme.AnswerContext(ctx, q, core.ExecOptions{
			Alpha: 0.2, Fetcher: tc.nodes[0].Fetcher(), BypassCache: true,
		})
		if gotErr != nil {
			var pe *PeerError
			if errors.As(gotErr, &pe) {
				peerErrs++
				continue
			}
			if wantErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("case %d: untyped failure under peer loss: %v (ref: %v)\n%s",
					ci, gotErr, wantErr, query.Render(q))
			}
			continue
		}
		// The query succeeded despite the dead peer (served locally): it
		// must still be byte-identical — degraded never means wrong.
		if wantErr != nil {
			t.Fatalf("case %d: cluster answered where reference errors (%v)\n%s", ci, wantErr, query.Render(q))
		}
		if !reflect.DeepEqual(relKeys(wantAns.Rel), relKeys(gotAns.Rel)) ||
			wantAns.Eta != gotAns.Eta || wantAns.Exact != gotAns.Exact ||
			wantAns.Stats.Accessed != gotAns.Stats.Accessed ||
			wantAns.Stats.Truncated != gotAns.Stats.Truncated {
			t.Fatalf("case %d: wrong answer under peer loss\n%s", ci, query.Render(q))
		}
	}
	if peerErrs == 0 {
		t.Fatal("peer death produced no PeerError; test is vacuous")
	}
	if reasons := tc.nodes[0].Ready(); len(reasons) == 0 {
		t.Fatal("coordinator still ready after losing its peer past the retry budget")
	}
}

// TestCorruptFrameResponse covers a peer answering 200 with garbage bytes:
// the client must fail typed (a *PeerError wrapping the *FrameError), never
// panic, never hand the executor a fabricated view.
func TestCorruptFrameResponse(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, as, fastFail)
	defer tc.close()
	// Replace the peer's handler with one serving corrupt frames.
	tc.servers[1].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("\xff\xff\xff\xff not a frame"))
	})

	l, sub := findRemoteXs(t, tc.nodes[0], as)
	_, err = tc.nodes[0].Fetcher().FetchBatchBlocks(context.Background(), l, sub, 1)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("corrupt frame produced %v, want *PeerError", err)
	}
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("PeerError does not wrap the *FrameError: %v", err)
	}
}

// TestMidStreamDisconnect covers a peer dying mid-response: the connection
// is hijacked, half a frame is written, and the socket closed. The client
// must retry and ultimately fail typed.
func TestMidStreamDisconnect(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, as, fastFail)
	defer tc.close()
	tc.servers[1].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("recorder not hijackable")
			return
		}
		conn, buf, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		// A valid status line and a Content-Length larger than what is
		// sent, then a hard close: the client sees an unexpected EOF.
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\npartial")
		buf.Flush()
		if tcp, ok := conn.(*net.TCPConn); ok {
			tcp.SetLinger(0) // RST instead of FIN: a hard mid-stream death
		}
		conn.Close()
	})

	l, sub := findRemoteXs(t, tc.nodes[0], as)
	_, err = tc.nodes[0].Fetcher().FetchBatchBlocks(context.Background(), l, sub, 1)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("mid-stream disconnect produced %v, want *PeerError", err)
	}
}

// TestGarbageRequestRejected covers the server side of frame corruption: a
// POST of non-frame bytes to /internal/fetch must answer 400 (typed reason
// in the body), never panic, never 200.
func TestGarbageRequestRejected(t *testing.T) {
	db := fixture.Example1(7, 60, 40)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 1, as, nil)
	defer tc.close()
	h := tc.nodes[0].Handler()

	for _, body := range []string{"", "garbage", "\x00\x01\x02", strings.Repeat("\xff", 64)} {
		req := httptest.NewRequest(http.MethodPost, FetchPath, bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("garbage body %q answered %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
	}

	// A syntactically valid frame naming an unknown ladder answers 404.
	req := httptest.NewRequest(http.MethodPost, FetchPath,
		bytes.NewReader(AppendFetchRequest(nil, "no|such|ladder", 1, 0, nil)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown ladder answered %d, want 404", rec.Code)
	}
}

// findRemoteXs returns a ladder and a non-empty set of its group X-values
// that the ring routes AWAY from node (so a fetch must cross the wire).
func findRemoteXs(t *testing.T, n *Node, as *access.Schema) (*access.Ladder, []relation.Tuple) {
	t.Helper()
	for _, l := range as.Ladders {
		h := hash64(LadderID(l))
		var out []relation.Tuple
		for _, x := range l.GroupXs() {
			if n.ring.Owner(RouteKey(h, x)) != n.NodeID() {
				out = append(out, x)
			}
		}
		if len(out) > 0 {
			return l, out
		}
	}
	t.Fatal("ring routes every group of every ladder locally; cannot exercise the wire")
	return nil, nil
}
