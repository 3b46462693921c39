// Frame codec for the /internal/fetch RPC. The payload — X-value tuples in
// the request, level Y-blocks in the response — rides on the fuzz-hardened
// column-wise block codec of internal/relation; this file adds only the
// envelope (magic, ladder identity, counts, presence flags).
//
// Request layout (all counts uvarint):
//
//	magic reqMagic, ladderID (length-prefixed), k, width, count,
//	then — only when width > 0 and count > 0 — one encoded Block of the
//	X-values (width x count). Zero-width ladders (X = ∅, the At-ladders)
//	ship the count alone, because the block codec canonically rejects
//	zero-width blocks with rows.
//
// Response layout:
//
//	magic respMagic, n,
//	then per entry: flag byte (0 = nil, group missing; 1 = present),
//	and for present entries one encoded Block of the level's Y-tuples
//	followed by Rows() uvarint per-sample counts.
//
// Decoding is bounds-checked throughout: corrupt input yields a typed
// *FrameError (wrapping the inner *relation.BlockCorruptError where block
// decoding failed), never a panic or an unbounded allocation —
// FuzzFetchFrame holds that line.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/relation"
)

// Frame magics: a decoder fed the wrong frame kind (or non-frame bytes)
// fails immediately with a typed error instead of misparsing.
const (
	reqMagic  = 0xbea5f001
	respMagic = 0xbea5f002
)

// maxFrameItems caps per-frame element counts (X-values, response entries,
// ladder-ID bytes) before anything proportional to them is allocated.
const maxFrameItems = 1 << 20

// FrameError reports an undecodable RPC frame: truncated bytes, a bad
// magic, an out-of-range count, or a corrupt embedded block (then Err holds
// the *relation.BlockCorruptError). The fetch client and server rely on
// every frame decode failure being this type.
type FrameError struct {
	Offset int    // byte offset at which decoding failed
	Reason string // human-readable cause
	Err    error  // inner cause (embedded block corruption), may be nil
}

// Error implements the error interface.
func (e *FrameError) Error() string {
	return fmt.Sprintf("cluster: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// Unwrap exposes the embedded block-codec error to errors.As.
func (e *FrameError) Unwrap() error { return e.Err }

func corruptFrame(pos int, format string, args ...any) error {
	return &FrameError{Offset: pos, Reason: fmt.Sprintf(format, args...)}
}

// FetchRequest is one decoded /internal/fetch request: resolve the level-K
// views of every X-value against the identified ladder.
type FetchRequest struct {
	LadderID string
	K        int
	Width    int
	Xs       []relation.Tuple
}

// AppendFetchRequest appends the encoded fetch request to buf and returns
// the extended slice. Every tuple of xs must have arity width.
func AppendFetchRequest(buf []byte, ladderID string, k, width int, xs []relation.Tuple) []byte {
	buf = binary.AppendUvarint(buf, reqMagic)
	buf = binary.AppendUvarint(buf, uint64(len(ladderID)))
	buf = append(buf, ladderID...)
	buf = binary.AppendUvarint(buf, uint64(k))
	buf = binary.AppendUvarint(buf, uint64(width))
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	if width > 0 && len(xs) > 0 {
		b := relation.NewBlock(width)
		for _, x := range xs {
			b.AppendTuple(x)
		}
		buf = relation.AppendBlock(buf, b)
	}
	return buf
}

// DecodeFetchRequest decodes one request frame. All failures return a
// *FrameError.
func DecodeFetchRequest(data []byte) (*FetchRequest, error) {
	pos := 0
	magic, pos, err := frameUvarint(data, pos, "magic")
	if err != nil {
		return nil, err
	}
	if magic != reqMagic {
		return nil, corruptFrame(0, "bad request magic %#x", magic)
	}
	idLen, pos, err := frameUvarint(data, pos, "ladder ID length")
	if err != nil {
		return nil, err
	}
	if idLen > maxFrameItems || idLen > uint64(len(data)-pos) {
		return nil, corruptFrame(pos, "ladder ID length %d out of range", idLen)
	}
	id := string(data[pos : pos+int(idLen)])
	pos += int(idLen)
	kU, pos, err := frameUvarint(data, pos, "k")
	if err != nil {
		return nil, err
	}
	if kU > maxFrameItems {
		return nil, corruptFrame(pos, "level %d out of range", kU)
	}
	widthU, pos, err := frameUvarint(data, pos, "width")
	if err != nil {
		return nil, err
	}
	if widthU > maxFrameItems {
		return nil, corruptFrame(pos, "width %d out of range", widthU)
	}
	countU, pos, err := frameUvarint(data, pos, "X count")
	if err != nil {
		return nil, err
	}
	if countU > maxFrameItems {
		return nil, corruptFrame(pos, "X count %d out of range", countU)
	}
	req := &FetchRequest{LadderID: id, K: int(kU), Width: int(widthU)}
	switch {
	case countU == 0:
		// No X-values; nothing follows.
	case widthU == 0:
		// Zero-arity X: count empty tuples, no block payload (the X count
		// is already capped by maxFrameItems above, bounding the
		// allocation). One shared empty tuple serves them all — fetches
		// never mutate X.
		empty := relation.Tuple{}
		req.Xs = make([]relation.Tuple, int(countU))
		for i := range req.Xs {
			req.Xs[i] = empty
		}
	default:
		blk, end, berr := relation.DecodeBlock(data, pos)
		if berr != nil {
			return nil, &FrameError{Offset: pos, Reason: "corrupt X block: " + berr.Error(), Err: berr}
		}
		pos = end
		if blk.Width() != int(widthU) || blk.Rows() != int(countU) {
			return nil, corruptFrame(pos, "X block is %dx%d, header says %dx%d",
				blk.Width(), blk.Rows(), widthU, countU)
		}
		req.Xs = blk.Tuples()
	}
	if pos != len(data) {
		return nil, corruptFrame(pos, "%d trailing bytes", len(data)-pos)
	}
	return req, nil
}

// AppendFetchResponse appends the encoded response — one entry per
// requested X-value, nil entries marking missing groups — and returns the
// extended slice.
func AppendFetchResponse(buf []byte, lvls []*access.LevelBlock) []byte {
	buf = binary.AppendUvarint(buf, respMagic)
	buf = binary.AppendUvarint(buf, uint64(len(lvls)))
	for _, lvl := range lvls {
		if lvl == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = relation.AppendBlock(buf, lvl.Y())
		for _, c := range lvl.Counts() {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	return buf
}

// DecodeFetchResponse decodes one response frame. All failures return a
// *FrameError.
func DecodeFetchResponse(data []byte) ([]*access.LevelBlock, error) {
	pos := 0
	magic, pos, err := frameUvarint(data, pos, "magic")
	if err != nil {
		return nil, err
	}
	if magic != respMagic {
		return nil, corruptFrame(0, "bad response magic %#x", magic)
	}
	nU, pos, err := frameUvarint(data, pos, "entry count")
	if err != nil {
		return nil, err
	}
	if nU > maxFrameItems || nU > uint64(len(data)-pos)+1 {
		// Every entry costs at least its flag byte (+1 tolerates the
		// zero-entry frame ending exactly at the count).
		return nil, corruptFrame(pos, "entry count %d out of range", nU)
	}
	out := make([]*access.LevelBlock, int(nU))
	for i := range out {
		if pos >= len(data) {
			return nil, corruptFrame(pos, "truncated entry %d", i)
		}
		flag := data[pos]
		pos++
		switch flag {
		case 0:
			continue
		case 1:
		default:
			return nil, corruptFrame(pos-1, "invalid presence flag %d", flag)
		}
		blk, end, berr := relation.DecodeBlock(data, pos)
		if berr != nil {
			return nil, &FrameError{Offset: pos, Reason: "corrupt level block: " + berr.Error(), Err: berr}
		}
		pos = end
		counts := make([]int32, blk.Rows())
		for r := range counts {
			c, p, cerr := frameUvarint(data, pos, "sample count")
			if cerr != nil {
				return nil, cerr
			}
			if c > math.MaxInt32 {
				return nil, corruptFrame(pos, "sample count %d out of range", c)
			}
			counts[r] = int32(c)
			pos = p
		}
		out[i] = access.NewLevelBlock(blk, counts)
	}
	if pos != len(data) {
		return nil, corruptFrame(pos, "%d trailing bytes", len(data)-pos)
	}
	return out, nil
}

func frameUvarint(data []byte, pos int, what string) (uint64, int, error) {
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, corruptFrame(pos, "bad varint (%s)", what)
	}
	return v, pos + n, nil
}
