package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/relation"
)

// PeerError is the typed degraded path: a remote fetch that could not be
// completed after the retry budget (or was rejected fast by an open
// circuit). Queries routed through an unreachable peer fail with this
// error — visibly, never with a silently wrong or partial answer — and
// internal/serve maps it to 502 Bad Gateway.
type PeerError struct {
	Node    string // peer node ID
	Op      string // what was attempted ("fetch")
	Circuit bool   // true when the circuit breaker rejected the call fast
	Err     error  // last underlying cause
}

// Error implements the error interface.
func (e *PeerError) Error() string {
	if e.Circuit {
		return fmt.Sprintf("cluster: peer %s: %s rejected, circuit open: %v", e.Node, e.Op, e.Err)
	}
	return fmt.Sprintf("cluster: peer %s: %s failed: %v", e.Node, e.Op, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

// errCircuitOpen is the cause carried by fast-failed calls.
var errCircuitOpen = errors.New("cooling off after consecutive failures")

// maxRetryBackoff caps the doubling retry delay.
const maxRetryBackoff = 500 * time.Millisecond

// latWindow is the per-peer latency ring size backing the p95 estimate.
const latWindow = 64

// peer is the client-side state for one remote node: counters for the
// metrics registry and the circuit breaker protecting the fetch path.
type peer struct {
	id  string
	url string

	// The call counters are registry instruments (atomics); see
	// Node.RegisterMetrics.
	fetches   obs.Counter // completed RPC calls (success or final failure)
	retries   obs.Counter // individual attempt retries
	failures  obs.Counter // calls failed past the retry budget
	fastFails obs.Counter // calls rejected by an open circuit

	mu          sync.Mutex
	consecFails int // consecutive failed calls (resets on success)
	openUntil   time.Time
	lat         [latWindow]int64 // recent success latencies, microseconds
	latN        int
	latIdx      int
}

// allow reports whether a call may proceed: true while the circuit is
// closed, and true for the single probe admitted after the cooloff of an
// open circuit elapses.
func (p *peer) allow(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.openUntil.IsZero() || now.After(p.openUntil) {
		return true
	}
	p.fastFails.Inc()
	return false
}

// recordSuccess closes the circuit and folds the call latency into the
// p95 window.
func (p *peer) recordSuccess(micros int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fetches.Inc()
	p.consecFails = 0
	p.openUntil = time.Time{}
	p.lat[p.latIdx] = micros
	p.latIdx = (p.latIdx + 1) % latWindow
	if p.latN < latWindow {
		p.latN++
	}
}

// recordFailure counts one post-retry failure and opens the circuit once
// threshold consecutive calls have failed.
func (p *peer) recordFailure(threshold int, cooloff time.Duration, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fetches.Inc()
	p.failures.Inc()
	p.consecFails++
	if p.consecFails >= threshold {
		p.openUntil = now.Add(cooloff)
	}
}

// addRetry counts one retried attempt.
func (p *peer) addRetry() { p.retries.Inc() }

// circuitOpen reports whether the breaker currently rejects calls.
func (p *peer) circuitOpen(now time.Time) (bool, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.openUntil.IsZero() && now.Before(p.openUntil), p.consecFails
}

// p95Micros estimates the 95th-percentile success latency over the window;
// 0 until a success has been recorded.
func (p *peer) p95Micros() int64 {
	p.mu.Lock()
	n := p.latN
	var buf [latWindow]int64
	copy(buf[:], p.lat[:])
	p.mu.Unlock()
	if n == 0 {
		return 0
	}
	s := buf[:n]
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := (n * 95) / 100
	if i >= n {
		i = n - 1
	}
	return s[i]
}

// Fetcher routes the executor's batched fetches across the cluster. It
// implements plan.RemoteFetcher: the X-values of each batch split by ring
// ownership between the local ladder and per-peer /internal/fetch RPCs,
// and the merged result preserves out[i] <-> xs[i] with FULL untruncated
// level views, so the executor's sequential budget accounting (and hence
// the answer bytes) cannot tell where a view was served.
type Fetcher struct {
	n *Node
}

// Fetcher returns the node's routing fetcher.
func (n *Node) Fetcher() *Fetcher { return &Fetcher{n: n} }

// FetchBatchBlocks resolves the level-k views for every X-value of xs
// across the cluster; out[i] corresponds to xs[i], nil for missing groups.
// ctx bounds the whole fan-out. Any unresolvable peer aborts the call with
// a *PeerError.
func (f *Fetcher) FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	return f.n.fetchLevels(ctx, l, xs, k)
}

// fetchLevels is the routed scatter-gather: split xs by ring owner, resolve
// the local share in-process and each remote share with one RPC per peer,
// and merge by original index. Peer RPCs run concurrently; the first error
// in sorted-peer order wins (deterministic across runs).
func (n *Node) fetchLevels(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	out := make([]*access.LevelBlock, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	if len(n.peers) == 0 {
		n.localXs.Add(uint64(len(xs)))
		return l.FetchBatchBlocks(xs, k, 1), nil
	}
	id := LadderID(l)
	h := hash64(id)
	if ent, ok := n.ladders[id]; ok {
		h = ent.hash
	}
	var localIdx []int
	byPeer := make(map[string][]int)
	for i, x := range xs {
		owner := n.ring.Owner(RouteKey(h, x))
		if owner == n.cfg.NodeID {
			localIdx = append(localIdx, i)
		} else {
			byPeer[owner] = append(byPeer[owner], i)
		}
	}
	n.localXs.Add(uint64(len(localIdx)))
	n.remoteXs.Add(uint64(len(xs) - len(localIdx)))

	errs := make(map[string]error, len(byPeer))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for pid, idxs := range byPeer {
		p, ok := n.peers[pid]
		if !ok {
			// The ring contains only NodeID + peer IDs, so this cannot
			// happen; fail loudly rather than silently dropping groups.
			return nil, &PeerError{Node: pid, Op: "fetch", Err: errors.New("owner not in peer set")}
		}
		wg.Add(1)
		go func(p *peer, idxs []int) {
			defer wg.Done()
			sub := make([]relation.Tuple, len(idxs))
			for j, i := range idxs {
				sub[j] = xs[i]
			}
			lvls, err := n.fetchPeer(ctx, p, id, sub, k, len(l.X))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[p.id] = err
				return
			}
			for j, i := range idxs {
				out[i] = lvls[j]
			}
		}(p, idxs)
	}
	if len(localIdx) > 0 {
		ls := obs.SpanFrom(ctx).Child("local_fetch")
		ls.SetInt("xs", int64(len(localIdx)))
		sub := make([]relation.Tuple, len(localIdx))
		for j, i := range localIdx {
			sub[j] = xs[i]
		}
		lvls := l.FetchBatchBlocks(sub, k, 1)
		for j, i := range localIdx {
			out[i] = lvls[j]
		}
		ls.End()
	}
	wg.Wait()
	if len(errs) > 0 {
		ids := make([]string, 0, len(errs))
		for pid := range errs {
			ids = append(ids, pid)
		}
		sort.Strings(ids)
		return nil, errs[ids[0]]
	}
	return out, nil
}

// fetchPeer completes one /internal/fetch RPC against p with the node's
// deadline, retry and breaker policy. On success it returns len(xs) level
// views; every failure path returns a *PeerError (or the caller's own
// context error, which is not charged against the peer).
func (n *Node) fetchPeer(ctx context.Context, p *peer, ladderID string, xs []relation.Tuple, k, width int) ([]*access.LevelBlock, error) {
	// One span per peer RPC (including fast-failed ones): xs count, retry
	// count and circuit/error state, so a trace of a degraded query shows
	// exactly which peer cost what.
	ps := obs.SpanFrom(ctx).Child("peer_fetch")
	defer ps.End()
	ps.SetStr("peer", p.id)
	ps.SetStr("url", p.url)
	ps.SetInt("xs", int64(len(xs)))
	if !p.allow(time.Now()) {
		ps.SetBool("circuit_open", true)
		return nil, &PeerError{Node: p.id, Op: "fetch", Circuit: true, Err: errCircuitOpen}
	}
	reqBytes := AppendFetchRequest(nil, ladderID, k, width, xs)
	backoff := n.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= n.cfg.Retries; attempt++ {
		if attempt > 0 {
			p.addRetry()
			select {
			case <-ctx.Done():
				ps.SetInt("retries", int64(attempt))
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
		start := time.Now()
		lvls, err := n.fetchOnce(ctx, p, reqBytes, len(xs))
		if err == nil {
			p.recordSuccess(time.Since(start).Microseconds())
			ps.SetInt("retries", int64(attempt))
			return lvls, nil
		}
		if ctx.Err() != nil {
			// The query's own deadline/cancellation, not a peer fault:
			// surface it unwrapped (serve maps it to 504) and leave the
			// breaker untouched.
			ps.SetInt("retries", int64(attempt))
			return nil, ctx.Err()
		}
		lastErr = err
	}
	p.recordFailure(n.cfg.BreakerThreshold, n.cfg.BreakerCooloff, time.Now())
	ps.SetInt("retries", int64(n.cfg.Retries))
	ps.SetBool("error", true)
	return nil, &PeerError{Node: p.id, Op: "fetch", Err: lastErr}
}

// fetchOnce is a single attempt: POST the frame under the per-call
// deadline, decode and validate the response.
func (n *Node) fetchOnce(ctx context.Context, p *peer, reqBytes []byte, want int) ([]*access.LevelBlock, error) {
	callCtx, cancel := context.WithTimeout(ctx, n.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(callCtx, http.MethodPost, p.url+FetchPath, bytes.NewReader(reqBytes))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFrameBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, truncateMsg(body))
	}
	if len(body) > maxFrameBytes {
		return nil, fmt.Errorf("response frame exceeds %d bytes", maxFrameBytes)
	}
	lvls, err := DecodeFetchResponse(body)
	if err != nil {
		return nil, err
	}
	if len(lvls) != want {
		return nil, fmt.Errorf("response has %d entries, requested %d", len(lvls), want)
	}
	return lvls, nil
}

// truncateMsg renders an error body snippet for diagnostics.
func truncateMsg(body []byte) string {
	const max = 200
	s := string(bytes.TrimSpace(body))
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
