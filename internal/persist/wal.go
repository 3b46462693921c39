package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/access"
	"repro/internal/faultfs"
)

// This file implements the maintenance write-ahead log. Every insert/delete
// appends one compact record BEFORE the affected groups are mutated, so
// a crash at any point loses at most the operation whose record never made
// it to disk. A record is
//
//	uint32 body length | uint32 CRC-32(length) | uint32 CRC-32(body) | body
//	body: uvarint seq | op byte | relation name | tuple
//
// with monotonically increasing sequence numbers. Recovery is the latest
// snapshot plus a replay of the records whose seq exceeds the snapshot's
// applied-sequence watermark — the watermark is what makes the
// checkpoint-then-truncate pair crash-safe: if the process dies between
// writing the new snapshot and truncating the log, the stale records are
// recognised as already applied and skipped instead of applied twice.
//
// A torn tail — the signature of a crash mid-append, which can only leave
// a PREFIX of the final record — is tolerated: the complete prefix replays
// and the tail is truncated away before new appends. Torn and corrupt are
// distinguishable because the length field carries its own checksum: a
// file ending inside a record's header, or a header whose verified length
// reaches past end-of-file, is a torn tail; a full header whose length
// checksum fails (a bit flip that would otherwise fake a torn tail and
// silently swallow every later record), or a complete record whose body
// checksum fails, is real corruption and rejected with *CorruptError.

// WALFile is the name of the write-ahead log inside a persistence directory.
const WALFile = "wal.log"

// walRecord is one decoded log record.
type walRecord struct {
	seq uint64
	op  access.Op
}

// walHeaderLen is the fixed per-record prefix: body length + length CRC +
// body CRC.
const walHeaderLen = 12

// encodeWALRecord renders one complete record (header + body).
func encodeWALRecord(seq uint64, op access.Op) []byte {
	e := &encoder{buf: make([]byte, walHeaderLen, walHeaderLen+64)}
	e.uvarint(seq)
	e.byte(byte(op.Kind))
	e.string(op.Rel)
	e.tuple(op.Tuple)
	body := e.buf[walHeaderLen:]
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(e.buf[4:8], crc32.ChecksumIEEE(e.buf[0:4]))
	binary.LittleEndian.PutUint32(e.buf[8:12], crc32.ChecksumIEEE(body))
	return e.buf
}

// decodeWALBody parses a record body (already checksum-verified).
func decodeWALBody(path string, body []byte) (walRecord, error) {
	d := &decoder{data: body, path: path}
	var rec walRecord
	var err error
	if rec.seq, err = d.uvarint(); err != nil {
		return rec, err
	}
	kind, err := d.byte()
	if err != nil {
		return rec, err
	}
	rec.op.Kind = access.OpKind(kind)
	if rec.op.Kind != access.OpInsert && rec.op.Kind != access.OpDelete {
		return rec, d.fail("unknown WAL op kind %d", kind)
	}
	if rec.op.Rel, err = d.string(); err != nil {
		return rec, err
	}
	if rec.op.Tuple, err = d.tuple(); err != nil {
		return rec, err
	}
	if d.remaining() != 0 {
		return rec, d.fail("%d trailing bytes in WAL record body", d.remaining())
	}
	return rec, nil
}

// scanWAL reads every complete record of a log image. It returns the
// records and the byte offset just past the last complete one. Appends are
// contiguous prefix writes, so a crash leaves at most a partial FINAL
// record: a file ending inside a header, or a verified header whose body
// reaches past end-of-file, is that torn tail and stops the scan. A full
// header failing its length checksum, or a complete record failing its
// body checksum, cannot come from a torn append — that is corruption.
func scanWAL(path string, data []byte) ([]walRecord, int64, error) {
	var recs []walRecord
	off := 0
	for {
		if len(data)-off < walHeaderLen {
			return recs, int64(off), nil // torn header or empty tail
		}
		blen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		lsum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		bsum := binary.LittleEndian.Uint32(data[off+8 : off+12])
		if crc32.ChecksumIEEE(data[off:off+4]) != lsum {
			return nil, 0, corruptf(path, "record %d at offset %d: length checksum mismatch", len(recs), off)
		}
		if len(data)-off-walHeaderLen < blen {
			return recs, int64(off), nil // torn body (length verified)
		}
		body := data[off+walHeaderLen : off+walHeaderLen+blen]
		if crc32.ChecksumIEEE(body) != bsum {
			return nil, 0, corruptf(path, "record %d at offset %d: body checksum mismatch", len(recs), off)
		}
		rec, err := decodeWALBody(path, body)
		if err != nil {
			return nil, 0, fmt.Errorf("record %d at offset %d: %w", len(recs), off, err)
		}
		recs = append(recs, rec)
		off += walHeaderLen + blen
	}
}

// wal is an open write-ahead log positioned for appends.
type wal struct {
	f     faultfs.File
	path  string
	bytes int64
}

// openWAL opens (creating if absent) the log at path through the fsys
// seam, scans the existing records, truncates any torn tail, and returns
// the log positioned for appends together with the scanned records.
func openWAL(fsys faultfs.FS, path string) (*wal, []walRecord, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := scanWAL(path, data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{f: f, path: path, bytes: good}, recs, nil
}

// append writes one record and flushes it to the OS; it returns the record's
// encoded size.
func (w *wal) append(seq uint64, op access.Op) (int, error) {
	rec := encodeWALRecord(seq, op)
	if _, err := w.f.Write(rec); err != nil {
		return 0, err
	}
	w.bytes += int64(len(rec))
	return len(rec), nil
}

// sync forces the log contents to stable storage.
func (w *wal) sync() error { return w.f.Sync() }

// rollback cuts the log back to `to` bytes — the recovery move after a
// failed append: the batch's partial records must not survive, or recovery
// would replay operations the caller was told failed. A rollback that
// itself fails leaves the log unusable for further appends (the caller
// flips the store to degraded durability).
func (w *wal) rollback(to int64) error {
	if err := w.f.Truncate(to); err != nil {
		return err
	}
	if _, err := w.f.Seek(to, io.SeekStart); err != nil {
		return err
	}
	w.bytes = to
	return nil
}

// reset truncates the log to empty (after a checkpoint made its records
// redundant).
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.bytes = 0
	return nil
}

// close releases the underlying file.
func (w *wal) close() error { return w.f.Close() }
