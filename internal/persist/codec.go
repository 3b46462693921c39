package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"

	"repro/internal/access"
	"repro/internal/faultfs"
	"repro/internal/relation"
)

// This file implements the snapshot codec: a versioned, checksummed binary
// encoding of a system's full persistent state — the base relations (so a
// warm start observes exactly the data the snapshot was taken over, even
// after incremental maintenance diverged it from the loader's copy) and
// every ladder of the access schema (per group: X-key, raw tuple list,
// distinct-Y count, per-level fetch views and resolutions;
// kd-tree structure is NOT encoded — the fetch path serves the views, and
// the first maintenance touch on a restored group rebuilds its tree from
// the tuple list deterministically). Each ladder record also carries a
// partition count, from when ladders were hash-partitioned; the encoder
// writes 1, and the decoder rejects a count below 1 and otherwise ignores
// it, so snapshots written at any partition count still load. The file
// layout is
//
//	magic "BEASSNAP" | uint32 version | uint64 payload length | uint32 CRC-32 | payload
//
// with the CRC (IEEE) taken over the payload. Any mismatch — wrong magic,
// unknown version, short file, trailing bytes, checksum failure, or a
// malformed payload — decodes to a *CorruptError, never a panic, so a
// damaged file can always be distinguished from an I/O failure and rejected
// cleanly (FuzzSnapshotRoundTrip pins this).
//
// Integers are unsigned varints (zigzag for signed), floats are IEEE-754
// bit patterns, strings and tuples are length-prefixed. Group order inside
// a ladder is canonical (sorted by X-key), so encoding the same state twice
// yields identical bytes.
//
// Version 2 stores bulk tuple data — relation contents and explicit ladder
// item lists — column-wise via the relation block codec (one typed payload
// stream per attribute, dictionary-coded strings, validity bitmaps) instead
// of row-at-a-time value records: snapshots shrink (categorical attributes
// collapse into a dictionary plus small indexes) and a warm start decodes
// flat arrays instead of one tagged value at a time. Readers reject the
// row-format version 1. Values round-trip kind-exact through blocks, so
// the derivable() spelling check and byte-identical warm-start answers are
// unaffected.
//
// Two references keep the warm path linear instead of re-decoding the same
// tuples repeatedly, mirroring the sharing the in-memory structures already
// have:
//
//   - level-view rows are stored as indexes into the owning group's item
//     list — in a built tree every representative IS the first key-equal
//     item, so a row is (item index, count), which access.LevelRef carries
//     and a restore fills the ladder's arena from;
//   - a ladder whose group item lists are, in order, exactly the
//     X-grouped Y-projections of its relation's stored tuples (the natural
//     state of built and incrementally maintained ladders) is marked
//     "derived": its items are not encoded at all and are reconstructed on
//     load by one projection scan over the already-decoded relation. The
//     encoder verifies derivability value-for-value (exact spellings, not
//     just key equality) and falls back to explicit item encoding
//     otherwise, so the restored state is byte-identical either way.

// SnapshotFile is the name of the snapshot inside a persistence directory.
const SnapshotFile = "snapshot.beas"

// snapshotMagic identifies a snapshot file; snapshotVersion is the current
// format version. Readers reject any other version.
var snapshotMagic = [8]byte{'B', 'E', 'A', 'S', 'S', 'N', 'A', 'P'}

// snapshotVersion is the snapshot format version written by every encode
// and the only one decodes accept.
const snapshotVersion = 2

// headerLen is the fixed byte length of the snapshot file header.
const headerLen = 8 + 4 + 8 + 4

// Item-list encoding modes of one ladder.
const (
	// itemsExplicit stores every group's item tuples verbatim.
	itemsExplicit = 0
	// itemsDerived stores only per-group item counts; the lists are
	// reconstructed by projecting the relation's stored tuples.
	itemsDerived = 1
)

// CorruptError reports a snapshot or WAL file that failed structural or
// checksum validation. It is the typed rejection the loaders return for any
// damaged input; use errors.As to detect it.
type CorruptError struct {
	// Path is the offending file (may be empty for in-memory decoding).
	Path string
	// Reason describes what failed.
	Reason string
}

// Error renders the corruption report.
func (e *CorruptError) Error() string {
	if e.Path == "" {
		return "persist: corrupt data: " + e.Reason
	}
	return fmt.Sprintf("persist: corrupt %s: %s", e.Path, e.Reason)
}

// corruptf builds a *CorruptError with a formatted reason.
func corruptf(path, format string, args ...any) error {
	return &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// snapshot is the decoded in-memory form of a snapshot file.
type snapshot struct {
	// appliedSeq is the highest WAL sequence number whose effects the
	// snapshot includes; replay skips records at or below it.
	appliedSeq uint64
	relations  []relSnapshot
	ladders    []access.LadderSnapshot
}

// relSnapshot is one relation's full tuple contents at snapshot time.
type relSnapshot struct {
	name   string
	attrs  []string
	tuples []relation.Tuple
}

// strictEqualValue reports representation equality: same kind and the same
// exact payload (float bit patterns included). Stricter than KeyEqual —
// Int(3) and Float(3) key-equal but render differently, and a derived item
// list must reproduce the stored spelling bit-for-bit.
func strictEqualValue(a, b relation.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case relation.KindNull:
		return true
	case relation.KindInt:
		ai, _ := a.AsInt()
		bi, _ := b.AsInt()
		return ai == bi
	case relation.KindFloat:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	default:
		as, _ := a.AsString()
		bs, _ := b.AsString()
		return as == bs
	}
}

// indicesOf resolves attribute names against an attribute list.
func indicesOf(attrs, names []string) ([]int, bool) {
	out := make([]int, len(names))
	for i, name := range names {
		found := -1
		for j, a := range attrs {
			if a == name {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		out[i] = found
	}
	return out, true
}

// --- encoder -------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}
func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) value(v relation.Value) {
	switch v.Kind() {
	case relation.KindNull:
		e.byte(byte(relation.KindNull))
	case relation.KindInt:
		e.byte(byte(relation.KindInt))
		i, _ := v.AsInt()
		e.varint(i)
	case relation.KindFloat:
		e.byte(byte(relation.KindFloat))
		f, _ := v.AsFloat()
		e.float(f)
	default:
		e.byte(byte(relation.KindString))
		s, _ := v.AsString()
		e.string(s)
	}
}

func (e *encoder) tuple(t relation.Tuple) {
	e.uvarint(uint64(len(t)))
	for _, v := range t {
		e.value(v)
	}
}

func (e *encoder) strings(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.string(s)
	}
}

// block appends a tuple list in the columnar block encoding (v2 bulk form).
func (e *encoder) block(width int, tuples []relation.Tuple) {
	e.buf = relation.AppendBlock(e.buf, relation.BlockOfTuples(width, tuples))
}

// ladderRel finds the ladder's relation inside the snapshot (the codec is
// closed over its own payload — it never consults the live database).
func (s *snapshot) ladderRel(name string) *relSnapshot {
	for i := range s.relations {
		if s.relations[i].name == name {
			return &s.relations[i]
		}
	}
	return nil
}

// derivable reports whether the ladder's group items are exactly the
// X-grouped Y-projections, in relation order and exact value spellings, of
// the snapshot's stored relation tuples — the condition under which the
// decoder can reconstruct them by one projection scan.
func derivable(rel *relSnapshot, l *access.LadderSnapshot) bool {
	if rel == nil {
		return false
	}
	xIdx, okX := indicesOf(rel.attrs, l.X)
	yIdx, okY := indicesOf(rel.attrs, l.Y)
	if !okX || !okY {
		return false
	}
	gidx, ok := groupIndex(l, len(xIdx))
	if !ok {
		return false
	}
	cursors := make([]int, len(l.Groups))
	key := make(relation.Tuple, len(xIdx)) // scratch: the lookup does not retain it
	for _, t := range rel.tuples {
		for i, j := range xIdx {
			key[i] = t[j]
		}
		gi, ok := gidx.Find(key)
		if !ok {
			return false
		}
		g := &l.Groups[gi]
		if cursors[gi] >= g.Items {
			return false
		}
		for c, j := range yIdx {
			if !strictEqualValue(l.Items.Value(g.First+cursors[gi], c), t[j]) {
				return false
			}
		}
		cursors[gi]++
	}
	for i := range l.Groups {
		if cursors[i] != l.Groups[i].Items {
			return false
		}
	}
	return true
}

// groupIndex numbers the ladder's groups by X-key in group order, keyed
// as the ladder's own group directory keys them (relation.KeyIndex): group
// i is number i. It reports false when a key is not an X-value of the
// given width or two groups share one.
func groupIndex(l *access.LadderSnapshot, width int) (relation.KeyIndex, bool) {
	gidx := relation.MakeKeyIndex(width)
	for i := range l.Groups {
		if len(l.Groups[i].Key) != width {
			return gidx, false
		}
		if _, added := gidx.Add(l.Groups[i].Key); !added {
			return gidx, false
		}
	}
	return gidx, true
}

// encodeSnapshot renders the payload bytes (header excluded).
func encodeSnapshot(s *snapshot) ([]byte, error) {
	e := &encoder{buf: make([]byte, 0, 1<<16)}
	e.uvarint(s.appliedSeq)
	e.uvarint(uint64(len(s.relations)))
	for _, r := range s.relations {
		e.string(r.name)
		e.strings(r.attrs)
		e.block(len(r.attrs), r.tuples)
	}
	e.uvarint(uint64(len(s.ladders)))
	for li := range s.ladders {
		l := &s.ladders[li]
		e.string(l.RelName)
		e.strings(l.X)
		e.strings(l.Y)
		e.uvarint(1) // partition count, fixed at 1 (see the file comment)
		mode := byte(itemsExplicit)
		if derivable(s.ladderRel(l.RelName), l) {
			mode = itemsDerived
		}
		e.byte(mode)
		e.uvarint(uint64(len(l.Groups)))
		for gi := range l.Groups {
			g := &l.Groups[gi]
			e.tuple(g.Key)
			if mode == itemsExplicit {
				// Explicit items ride in a columnar block (the row count is
				// the block's own) followed by the per-item counts, all 1.
				// The block is copied row by row so each column is encoded
				// as the group's own rows need (homogeneous, no validity
				// bitmap) even where the ladder's column mixes kinds or
				// holds nulls elsewhere.
				items := relation.NewBlock(len(l.Y))
				for r := g.First; r < g.First+g.Items; r++ {
					items.AppendRow(l.Items, r)
				}
				e.buf = relation.AppendBlock(e.buf, items)
				for range g.Items {
					e.uvarint(1)
				}
			} else {
				e.uvarint(uint64(g.Items))
			}
			e.uvarint(uint64(g.Distinct))
			// Level rows are (item index, count): every representative is
			// an item, the first one key-equal to it in a built group.
			e.uvarint(uint64(len(g.Levels)))
			for _, lvl := range g.Levels {
				e.uvarint(uint64(len(lvl)))
				for _, ref := range lvl {
					e.uvarint(uint64(ref.Item))
					e.uvarint(uint64(ref.Count))
				}
			}
			for _, res := range g.Resolutions {
				for _, d := range res {
					e.float(d)
				}
			}
		}
	}
	return e.buf, nil
}

// encodeSnapshotFile renders the complete file: header plus payload.
func encodeSnapshotFile(s *snapshot) ([]byte, error) {
	payload, err := encodeSnapshot(s)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, snapshotVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

// --- decoder -------------------------------------------------------------

// decoder reads the payload back, failing softly: every read reports an
// error instead of slicing past the buffer, and counts are sanity-bounded
// against the remaining bytes so a corrupted length cannot force a huge
// allocation. Tuples and diameter vectors are carved from chunked arenas —
// a snapshot decodes into a handful of large blocks instead of one heap
// object per tuple, which is where a warm start's time would otherwise go
// (allocation and GC, not parsing).
type decoder struct {
	data []byte
	off  int
	path string

	valArena   []relation.Value
	floatArena []float64
	refArena   []access.LevelRef
	// strCache interns decoded string values: categorical attributes repeat
	// the same handful of strings thousands of times, and the canonical
	// lookup (map indexed by a converted byte slice) allocates nothing on a
	// hit.
	strCache map[string]string
}

// arenaChunk sizes the decoder's allocation blocks.
const arenaChunk = 8192

// carve cuts an n-element slice from one of the decoder's arenas, starting
// a new block when the current one is short (capacity-pinned, so a later
// append can never clobber a neighbour).
func carve[T any](arena *[]T, n int) []T {
	if n > len(*arena) {
		*arena = make([]T, max(n, arenaChunk))
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out
}

func (d *decoder) fail(format string, args ...any) error {
	return corruptf(d.path, "offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.off += n
	return v, nil
}

// count reads a collection length and checks it against the bytes left,
// assuming each element occupies at least minBytes.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(d.remaining()/minBytes) {
		return 0, d.fail("count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

// intCount reads a count that is NOT backed by payload bytes (derived item
// lists), bounded by an explicit limit instead.
func (d *decoder) intCount(limit int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if limit < 0 || v > uint64(limit) {
		return 0, d.fail("count %d exceeds bound %d", v, limit)
	}
	return int(v), nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, d.fail("unexpected end of payload")
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *decoder) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, d.fail("truncated float")
	}
	bits := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

func (d *decoder) string() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	raw := d.data[d.off : d.off+n]
	d.off += n
	if d.strCache == nil {
		d.strCache = make(map[string]string, 256)
	}
	if s, ok := d.strCache[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	d.strCache[s] = s
	return s, nil
}

func (d *decoder) value() (relation.Value, error) {
	kind, err := d.byte()
	if err != nil {
		return relation.Null(), err
	}
	switch relation.Kind(kind) {
	case relation.KindNull:
		return relation.Null(), nil
	case relation.KindInt:
		i, err := d.varint()
		if err != nil {
			return relation.Null(), err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		f, err := d.float()
		if err != nil {
			return relation.Null(), err
		}
		return relation.Float(f), nil
	case relation.KindString:
		s, err := d.string()
		if err != nil {
			return relation.Null(), err
		}
		return relation.String(s), nil
	default:
		return relation.Null(), d.fail("unknown value kind %d", kind)
	}
}

func (d *decoder) tuple() (relation.Tuple, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	t := relation.Tuple(carve(&d.valArena, n))
	for i := range t {
		if t[i], err = d.value(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// block decodes one columnar block (v2 bulk form), translating the codec's
// typed corruption error into this file's *CorruptError.
func (d *decoder) block() (*relation.Block, error) {
	b, next, err := relation.DecodeBlock(d.data, d.off)
	if err != nil {
		return nil, corruptf(d.path, "%v", err)
	}
	d.off = next
	return b, nil
}

func (d *decoder) strings() ([]string, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.string(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// deriveItems reconstructs a derived ladder's items by one projection scan
// over the snapshot's relation tuples, into one block in which each group's
// items (wantItems[i] of group i) are a range, groups in order. Group items
// were verified at encode time to be exactly this scan's output.
func (d *decoder) deriveItems(rel *relSnapshot, l *access.LadderSnapshot, wantItems []int) error {
	if rel == nil {
		return d.fail("derived ladder %s has no relation in snapshot", l.RelName)
	}
	xIdx, okX := indicesOf(rel.attrs, l.X)
	yIdx, okY := indicesOf(rel.attrs, l.Y)
	if !okX || !okY {
		return d.fail("derived ladder %s: attributes missing from relation %s", l.RelName, rel.name)
	}
	gidx, ok := groupIndex(l, len(xIdx))
	if !ok {
		return d.fail("derived ladder %s: group keys are not distinct X-values", l.RelName)
	}
	next := make([]int, len(l.Groups)) // each group's next item row
	total := 0
	for i := range l.Groups {
		g := &l.Groups[i]
		g.First, g.Items, next[i] = total, wantItems[i], total
		total += wantItems[i]
	}
	src := make([]int32, total)            // each item's tuple
	key := make(relation.Tuple, len(xIdx)) // scratch: the lookup does not retain it
	for i, t := range rel.tuples {
		for c, j := range xIdx {
			key[c] = t[j]
		}
		gi, ok := gidx.Find(key)
		if !ok {
			return d.fail("derived ladder %s: tuple outside every group", l.RelName)
		}
		g := &l.Groups[gi]
		if next[gi] == g.First+g.Items {
			return d.fail("derived ladder %s: group %v overflows %d items", l.RelName, g.Key, g.Items)
		}
		src[next[gi]] = int32(i)
		next[gi]++
	}
	for i := range l.Groups {
		if g := &l.Groups[i]; next[i] != g.First+g.Items {
			return d.fail("derived ladder %s: group %v has %d items, want %d",
				l.RelName, g.Key, next[i]-g.First, g.Items)
		}
	}
	l.Items = relation.FillBlock(len(yIdx), total, func(r, c int) relation.Value {
		return rel.tuples[src[r]][yIdx[c]]
	}, runtime.GOMAXPROCS(0))
	return nil
}

// decodeSnapshot parses payload bytes (header already stripped and
// checksum-verified). path is used for error reporting only.
func decodeSnapshot(path string, payload []byte) (*snapshot, error) {
	d := &decoder{data: payload, path: path}
	s := &snapshot{}
	var err error
	if s.appliedSeq, err = d.uvarint(); err != nil {
		return nil, err
	}

	nRels, err := d.count(2)
	if err != nil {
		return nil, err
	}
	s.relations = make([]relSnapshot, nRels)
	for i := range s.relations {
		r := &s.relations[i]
		if r.name, err = d.string(); err != nil {
			return nil, err
		}
		if r.attrs, err = d.strings(); err != nil {
			return nil, err
		}
		blk, err := d.block()
		if err != nil {
			return nil, err
		}
		if blk.Width() != len(r.attrs) {
			return nil, d.fail("relation %s block width %d != %d attributes", r.name, blk.Width(), len(r.attrs))
		}
		r.tuples = blk.Tuples()
	}

	nLadders, err := d.count(2)
	if err != nil {
		return nil, err
	}
	s.ladders = make([]access.LadderSnapshot, nLadders)
	for i := range s.ladders {
		l := &s.ladders[i]
		if l.RelName, err = d.string(); err != nil {
			return nil, err
		}
		if l.X, err = d.strings(); err != nil {
			return nil, err
		}
		if l.Y, err = d.strings(); err != nil {
			return nil, err
		}
		partitions, err := d.count(0)
		if err != nil {
			return nil, err
		}
		if partitions < 1 {
			return nil, d.fail("ladder %s has partition count %d", l.RelName, partitions)
		}
		mode, err := d.byte()
		if err != nil {
			return nil, err
		}
		if mode != itemsExplicit && mode != itemsDerived {
			return nil, d.fail("ladder %s has unknown items mode %d", l.RelName, mode)
		}
		rel := s.ladderRel(l.RelName)
		// A derived group's items are not byte-backed; bound their total by
		// the relation rows that can produce them.
		itemBudget := 0
		if rel != nil {
			itemBudget = len(rel.tuples)
		}
		nGroups, err := d.count(2)
		if err != nil {
			return nil, err
		}
		l.Groups = make([]access.GroupSnapshot, nGroups)
		wantItems := make([]int, nGroups)
		if mode == itemsExplicit {
			l.Items = relation.NewBlock(len(l.Y))
		}
		for gi := range l.Groups {
			g := &l.Groups[gi]
			if g.Key, err = d.tuple(); err != nil {
				return nil, err
			}
			if mode == itemsExplicit {
				blk, err := d.block()
				if err != nil {
					return nil, err
				}
				if blk.Width() != len(l.Y) {
					return nil, d.fail("ladder %s group %v item block width %d != %d", l.RelName, g.Key, blk.Width(), len(l.Y))
				}
				// Every item stands for one base tuple; no encoder has
				// written another count.
				for range blk.Rows() {
					c, err := d.count(0)
					if err != nil {
						return nil, err
					}
					if c != 1 {
						return nil, d.fail("ladder %s group %v has an item of count %d", l.RelName, g.Key, c)
					}
				}
				g.First, g.Items = l.Items.Rows(), blk.Rows()
				l.Items.AppendBlockRange(blk, 0, blk.Rows())
				wantItems[gi] = blk.Rows()
			} else {
				nItems, err := d.intCount(itemBudget)
				if err != nil {
					return nil, err
				}
				itemBudget -= nItems
				wantItems[gi] = nItems
			}
			if g.Distinct, err = d.intCount(wantItems[gi]); err != nil {
				return nil, err
			}
			nLevels, err := d.count(3)
			if err != nil {
				return nil, err
			}
			g.Levels = make([][]access.LevelRef, nLevels)
			g.Resolutions = make([][]float64, nLevels)
			for k := range g.Levels {
				n, err := d.count(2)
				if err != nil {
					return nil, err
				}
				lvl := carve(&d.refArena, n)
				for j := range lvl {
					if lvl[j].Item, err = d.intCount(wantItems[gi] - 1); err != nil {
						return nil, err
					}
					if lvl[j].Count, err = d.intCount(math.MaxInt); err != nil {
						return nil, err
					}
				}
				g.Levels[k] = lvl
			}
			for k := range g.Resolutions {
				res := carve(&d.floatArena, len(l.Y))
				for a := range res {
					if res[a], err = d.float(); err != nil {
						return nil, err
					}
				}
				g.Resolutions[k] = res
			}
		}
		if mode == itemsDerived {
			if err := d.deriveItems(rel, l, wantItems); err != nil {
				return nil, err
			}
		}
	}
	if d.remaining() != 0 {
		return nil, d.fail("%d trailing payload bytes", d.remaining())
	}
	return s, nil
}

// decodeSnapshotFile validates the header and checksum of a complete file
// image and parses the payload.
func decodeSnapshotFile(path string, data []byte) (*snapshot, error) {
	if len(data) < headerLen {
		return nil, corruptf(path, "file shorter than the %d-byte header", headerLen)
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, corruptf(path, "bad magic %q", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != snapshotVersion {
		return nil, corruptf(path, "unsupported snapshot version %d", version)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	sum := binary.LittleEndian.Uint32(data[20:24])
	payload := data[headerLen:]
	if plen != uint64(len(payload)) {
		return nil, corruptf(path, "payload length %d != header %d", len(payload), plen)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, corruptf(path, "payload checksum mismatch")
	}
	return decodeSnapshot(path, payload)
}

// --- snapshot capture and restore ----------------------------------------

// captureSnapshot assembles the in-memory snapshot of (db, as) with the
// given applied-sequence watermark. Call under the single-writer discipline:
// the captured tuple and node slices are shared with the live system.
func captureSnapshot(db *relation.Database, as *access.Schema, appliedSeq uint64) *snapshot {
	s := &snapshot{appliedSeq: appliedSeq}
	for _, name := range db.Names() {
		r := db.MustRelation(name)
		s.relations = append(s.relations, relSnapshot{
			name:   name,
			attrs:  r.Schema.AttrNames(),
			tuples: r.Tuples,
		})
	}
	for _, l := range as.Ladders {
		s.ladders = append(s.ladders, l.Snapshot())
	}
	return s
}

// restoreSnapshot applies a decoded snapshot to db (replacing each
// relation's tuples with the snapshot's contents, so the restored system
// observes exactly the data the snapshot was taken over) and rebuilds the
// access schema.
func restoreSnapshot(db *relation.Database, s *snapshot) (*access.Schema, error) {
	for _, rs := range s.relations {
		r, ok := db.Relation(rs.name)
		if !ok {
			return nil, fmt.Errorf("persist: snapshot relation %q not in database (wrong dataset?)", rs.name)
		}
		attrs := r.Schema.AttrNames()
		if len(attrs) != len(rs.attrs) {
			return nil, fmt.Errorf("persist: snapshot relation %q has arity %d, database has %d",
				rs.name, len(rs.attrs), len(attrs))
		}
		for i := range attrs {
			if attrs[i] != rs.attrs[i] {
				return nil, fmt.Errorf("persist: snapshot relation %q attribute %d is %q, database has %q",
					rs.name, i, rs.attrs[i], attrs[i])
			}
		}
		r.Tuples = rs.tuples
	}
	as := &access.Schema{}
	for _, ls := range s.ladders {
		l, err := access.RestoreLadder(db, ls)
		if err != nil {
			return nil, err
		}
		as.Ladders = append(as.Ladders, l)
	}
	return as, nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// rename, and a directory fsync, so readers never observe a half-written
// snapshot and the replacement itself survives a power failure — the
// checkpointer truncates the WAL right after this returns, which is only
// safe once the new directory entry is durable. All file operations go
// through the fsys seam, so every failure point (write, fsync, rename,
// ENOSPC) is fault-injectable; a failure before the rename leaves the
// previous snapshot untouched and loadable.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	return fsys.SyncDir(dir)
}
