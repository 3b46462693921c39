package cluster

// Observability under peer failure: when a peer dies mid-corpus, the
// per-peer RPC spans must keep appearing in query traces — now carrying
// the failure state (error / circuit_open) and naming the peer — and
// every trace must stay balanced. A degraded query whose trace hides
// which peer failed, or leaks open spans, defeats the point of tracing.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/obs"
)

// collectSpans returns every span named name in the subtree rooted at s.
func collectSpans(s *obs.Span, name string) []*obs.Span {
	if s == nil {
		return nil
	}
	var out []*obs.Span
	if s.Name() == name {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = append(out, collectSpans(c, name)...)
	}
	return out
}

// spanAttr returns the value of the first attribute with the given key.
func spanAttr(s *obs.Span, key string) (any, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Val, true
		}
	}
	return nil, false
}

// TestPeerSpansUnderPeerDeath kills a peer mid-corpus with tracing on for
// every query and asserts (1) every trace — succeeding, failing, fast-
// failed by the open circuit — comes back balanced, and (2) after the
// kill, traces contain peer_fetch spans that name the dead peer and carry
// its failure state.
func TestPeerSpansUnderPeerDeath(t *testing.T) {
	const cases = 45
	ctx := context.Background()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, as, fastFail)
	defer tc.close()
	scheme := core.New(db, as)

	g := corpus.NewGenerator(42)
	peerSpans, failedSpans := 0, 0
	for ci := 0; ci < cases; ci++ {
		if ci == cases/3 {
			tc.servers[1].Close() // kill the peer mid-corpus
		}
		q := g.Query()
		tr := obs.NewTrace("query")
		// Bypass the plan cache so queries keep planning (and fetching)
		// after the kill.
		_, _, gotErr := scheme.AnswerContext(ctx, q, core.ExecOptions{
			Alpha: 0.2, Fetcher: tc.nodes[0].Fetcher(), Trace: tr, BypassCache: true,
		})
		if gotErr != nil {
			var pe *PeerError
			if !errors.As(gotErr, &pe) {
				continue // planner/validation failure, irrelevant here
			}
		}
		if n := tr.Root().Unclosed(); n != 0 || !tr.Root().Ended() {
			t.Fatalf("case %d: %d unclosed spans (root ended=%v, err=%v)\n%s",
				ci, n, tr.Root().Ended(), gotErr, tr)
		}
		for _, ps := range collectSpans(tr.Root(), "peer_fetch") {
			peerSpans++
			peer, ok := spanAttr(ps, "peer")
			if !ok || peer != "b-node" {
				t.Fatalf("case %d: peer_fetch span without peer identity (peer=%v)\n%s", ci, peer, tr)
			}
			if e, _ := spanAttr(ps, "error"); e == true {
				failedSpans++
			}
			if c, _ := spanAttr(ps, "circuit_open"); c == true {
				failedSpans++
			}
		}
	}
	if peerSpans == 0 {
		t.Fatal("no query trace contains a peer_fetch span; test is vacuous")
	}
	if failedSpans == 0 {
		t.Fatal("peer death left no error/circuit_open peer_fetch span in any trace")
	}
}
