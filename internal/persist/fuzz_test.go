package persist

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fixture"
)

// FuzzSnapshotRoundTrip pins the codec's two safety contracts. (1) Identity:
// any input that decodes must re-encode to a file that decodes to the same
// structure, and re-encoding that structure again yields identical bytes
// (encode is deterministic and canonical). (2) Rejection: any input that
// does not decode must fail with the typed *CorruptError — truncations,
// flipped bytes and arbitrary garbage must never panic, hang, or allocate
// unboundedly. The seeds cover a real system snapshot and its mutations;
// the engine takes it from there.
func FuzzSnapshotRoundTrip(f *testing.F) {
	db := testDB()
	as, err := fixture.SchemaA0(db)
	if err != nil {
		f.Fatal(err)
	}
	real, err := encodeSnapshotFile(captureSnapshot(db, as, 42))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	empty, err := encodeSnapshotFile(&snapshot{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("BEASSNAP"))
	mut := append([]byte(nil), real...)
	mut[headerLen+8] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshotFile("fuzz", data)
		if err != nil {
			ce := (*CorruptError)(nil)
			if !errors.As(err, &ce) {
				t.Fatalf("decode error %v is not a *CorruptError", err)
			}
			return
		}
		re, err := encodeSnapshotFile(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		s2, err := decodeSnapshotFile("fuzz-reencode", re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		re2, err := encodeSnapshotFile(s2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("decode∘encode is not the identity")
		}
	})
}
