package cluster

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/fixture"
	"repro/internal/relation"
)

// sampleLevels builds realistic level views to encode: the first ladder of
// the Example 1 fixture schema, one level per group X plus a nil entry.
func sampleLevels(t *testing.T) (*access.Ladder, []*access.LevelBlock) {
	t.Helper()
	db := fixture.Example1(3, 40, 30)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range as.Ladders {
		xs := l.GroupXs()
		if len(xs) == 0 {
			continue
		}
		lvls := l.FetchBatchBlocks(xs, 1, 1)
		return l, append(lvls, nil)
	}
	t.Fatal("fixture produced no groups")
	return nil, nil
}

// TestFrameRequestRoundTrip pins encode→decode identity for requests,
// including the zero-width (At-ladder) form.
func TestFrameRequestRoundTrip(t *testing.T) {
	l, _ := sampleLevels(t)
	xs := l.GroupXs()
	enc := AppendFetchRequest(nil, LadderID(l), 2, len(l.X), xs)
	req, err := DecodeFetchRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if req.LadderID != LadderID(l) || req.K != 2 || req.Width != len(l.X) || len(req.Xs) != len(xs) {
		t.Fatalf("round trip mangled the header: %+v", req)
	}
	for i := range xs {
		if xs[i].Key() != req.Xs[i].Key() {
			t.Fatalf("X %d diverged: %v vs %v", i, xs[i], req.Xs[i])
		}
	}

	// Zero-width request: count rides without a block.
	enc = AppendFetchRequest(nil, "r||y", 1, 0, []relation.Tuple{{}})
	req, err = DecodeFetchRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Xs) != 1 || len(req.Xs[0]) != 0 {
		t.Fatalf("zero-width round trip mangled Xs: %+v", req.Xs)
	}
}

// TestFrameResponseRoundTrip pins encode→decode identity for responses:
// values, counts and nil (missing-group) entries all survive.
func TestFrameResponseRoundTrip(t *testing.T) {
	_, lvls := sampleLevels(t)
	enc := AppendFetchResponse(nil, lvls)
	got, err := DecodeFetchResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lvls) {
		t.Fatalf("entry count %d, want %d", len(got), len(lvls))
	}
	for i, want := range lvls {
		if want == nil {
			if got[i] != nil {
				t.Fatalf("entry %d: nil became non-nil", i)
			}
			continue
		}
		g := got[i]
		if g.Rows() != want.Rows() {
			t.Fatalf("entry %d: rows %d, want %d", i, g.Rows(), want.Rows())
		}
		for r := 0; r < want.Rows(); r++ {
			if g.Counts()[r] != want.Counts()[r] {
				t.Fatalf("entry %d row %d: count %d, want %d", i, r, g.Counts()[r], want.Counts()[r])
			}
			if g.Y().Tuple(r).Key() != want.Y().Tuple(r).Key() {
				t.Fatalf("entry %d row %d: tuple diverged", i, r)
			}
		}
	}
}

// TestFrameTruncationTyped walks every prefix of valid frames through both
// decoders: each must fail with a *FrameError (or the wrapped block error),
// never panic, never succeed on a strict prefix.
func TestFrameTruncationTyped(t *testing.T) {
	l, lvls := sampleLevels(t)
	reqEnc := AppendFetchRequest(nil, LadderID(l), 1, len(l.X), l.GroupXs())
	respEnc := AppendFetchResponse(nil, lvls)
	for cut := 0; cut < len(reqEnc); cut++ {
		if _, err := DecodeFetchRequest(reqEnc[:cut]); err == nil {
			t.Fatalf("request prefix %d decoded", cut)
		} else {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("request prefix %d: untyped error %v", cut, err)
			}
		}
	}
	for cut := 0; cut < len(respEnc); cut++ {
		if _, err := DecodeFetchResponse(respEnc[:cut]); err == nil {
			t.Fatalf("response prefix %d decoded", cut)
		} else {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("response prefix %d: untyped error %v", cut, err)
			}
		}
	}
}

// TestRingDeterministic pins that rings built from permuted member lists
// agree on every owner, and that ownership is spread over all members.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]int{}
	for k := uint64(0); k < 10_000; k++ {
		key := splitmix64(k)
		oa, ob := a.Owner(key), b.Owner(key)
		if oa != ob {
			t.Fatalf("key %d: owners diverge (%s vs %s)", k, oa, ob)
		}
		hit[oa]++
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if hit[id] == 0 {
			t.Fatalf("node %s owns nothing: %v", id, hit)
		}
	}
	if _, err := NewRing([]string{"n1", "n1"}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
}

// FuzzFetchFrame is the RPC analogue of relation.FuzzBlockRoundTrip: both
// frame decoders must never panic and must fail only with typed errors on
// arbitrary input; whatever decodes successfully must re-encode and decode
// to the same bytes-on-the-wire meaning.
func FuzzFetchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// Seed with valid frames so the fuzzer starts inside the format.
	db := fixture.Example1(3, 40, 30)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range as.Ladders {
		xs := l.GroupXs()
		f.Add(AppendFetchRequest(nil, LadderID(l), 1, len(l.X), xs))
		if len(xs) > 0 {
			f.Add(AppendFetchResponse(nil, l.FetchBatchBlocks(xs, 1, 1)))
		}
	}
	f.Add(AppendFetchResponse(nil, []*access.LevelBlock{nil, nil}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeFetchRequest(data); err == nil {
			re := AppendFetchRequest(nil, req.LadderID, req.K, req.Width, req.Xs)
			rt, err := DecodeFetchRequest(re)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if rt.LadderID != req.LadderID || rt.K != req.K || rt.Width != req.Width || len(rt.Xs) != len(req.Xs) {
				t.Fatal("request round trip diverged")
			}
		} else {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped request decode error: %v", err)
			}
		}
		if lvls, err := DecodeFetchResponse(data); err == nil {
			re := AppendFetchResponse(nil, lvls)
			rt, err := DecodeFetchResponse(re)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if len(rt) != len(lvls) {
				t.Fatal("response round trip diverged")
			}
			if !bytes.Equal(re, AppendFetchResponse(nil, rt)) {
				t.Fatal("response re-encoding is not a fixed point")
			}
		} else {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped response decode error: %v", err)
			}
		}
	})
}
