package checkpoint

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadSnapshot hammers the snapshot parser the same way the matrix
// fuzzers hammer the matrix readers: any input may be rejected (with an error
// wrapping ErrBadSnapshot), but none may panic, and any accepted input must
// re-serialize and re-parse to the same state.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot(7)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)                         // flipped bit (checksum must catch)
	f.Add([]byte(toV1(f, string(valid))))  // v1 (no trailer): rejected
	f.Add(valid[:len(valid)-trailerLen])   // trailer sheared off
	f.Add([]byte("spcackpt 3\n"))          // header only
	f.Add([]byte("spcackpt 99\niter 1\n")) // future version
	f.Add([]byte("nonsense\n"))            // not a snapshot at all
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if s.C == nil || len(s.Mean) != s.Dims || s.C.R != s.Dims || s.C.C != s.D {
			t.Fatalf("accepted snapshot with inconsistent shapes: C=%v mean=%d dims=%d d=%d",
				s.C != nil, len(s.Mean), s.Dims, s.D)
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("re-serializing accepted snapshot: %v", err)
		}
		s2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		if s2.Iter != s.Iter || s2.Seed != s.Seed || s2.Dims != s.Dims || s2.D != s.D {
			t.Fatalf("round-trip changed identity: %+v -> %+v", s, s2)
		}
	})
}

// TestFuzzSeedV1Parses guards the v1 seed of the corpus: it must reach the
// header parse and be rejected there as an unsupported version, with
// ErrBadSnapshot, rather than fail earlier or be accepted.
func TestFuzzSeedV1Parses(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	_, err := Read(strings.NewReader(toV1(t, buf.String())))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 seed = %v, want ErrBadSnapshot for unsupported version 1", err)
	}
}
