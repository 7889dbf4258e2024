package checkpoint

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

func sampleSnapshot(iter int) *Snapshot {
	dims, d := 5, 2
	c := matrix.NewDense(dims, d)
	for i := range c.Data {
		// Awkward floats exercise the exact round-trip property.
		c.Data[i] = math.Sqrt(float64(i+1)) * 1e-3
	}
	best := matrix.NewDense(dims, d)
	for i := range best.Data {
		best.Data[i] = 1 / float64(i+3)
	}
	return &Snapshot{
		Iter: iter, Fit: "spca-spark", N: 40, Dims: dims, D: d, Seed: 42, FaultEpoch: 17,
		SS: 0.1234567890123456789, SS1: 987.654321,
		RidgeLevel: 1, Rising: 2,
		Mean: []float64{0.1, -0.25, math.Pi, 0, 1e-300},
		C:    c,
		Best: &BestState{Iter: iter - 1, Err: 0.5, SS: 0.2, C: best},
		Metrics: cluster.Metrics{
			ComputeOps: 1234, ShuffleBytes: 99, DiskBytes: 1000, Tasks: 7, Phases: 3,
			SimSeconds: 12.34567890123, DriverPeak: 1 << 20,
			FailedAttempts: 1, RecomputedOps: 11, RecoverySeconds: 0.5,
			CheckpointBytes: 100, CheckpointSeconds: 1e-6, DriverRestarts: 1,
			CorruptPayloads: 3, ReverifySeconds: 0.75,
		},
		History: []HistoryEntry{
			{Iter: 1, Err: 2.5, Accuracy: 0.1, SS: 1.5, SimSeconds: 3.25},
			{Iter: 2, Err: 1.25, Accuracy: 0.2, SS: 0.75, SimSeconds: 6.5, Ridge: 1e-8, RidgeRetries: 2, Rollback: true},
		},
	}
}

// TestRoundTrip also round-trips the empty fit name: a snapshot built
// without one (a probe, a test) must still read back.
func TestRoundTrip(t *testing.T) {
	for _, fit := range []string{"spca-spark", ""} {
		s := sampleSnapshot(7)
		s.Fit = fit
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if s.Bytes != int64(buf.Len()) {
			t.Fatalf("Bytes = %d, want %d", s.Bytes, buf.Len())
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Read(fit %q): %v", fit, err)
		}
		got.Bytes = s.Bytes // Read does not set Bytes
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
		}
	}
}

func TestRoundTripNoBest(t *testing.T) {
	s := sampleSnapshot(3)
	s.Best = nil
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Best != nil {
		t.Fatalf("Best = %+v, want nil", got.Best)
	}
}

// TestRoundTripSingular covers the sketch-engine snapshot shape: singular
// values ride along with the components, and the section adds exactly its
// own float64s to the cost model.
func TestRoundTripSingular(t *testing.T) {
	s := sampleSnapshot(5)
	plainCost := s.CostBytes()
	s.Singular = []float64{12.5, 3.25, 1e-17}
	if got, want := s.CostBytes(), plainCost+3*8; got != want {
		t.Fatalf("CostBytes with Singular = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	got.Bytes = s.Bytes
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}

	// An EM snapshot (no singular values) must serialize to the exact same
	// bytes as before the field existed: the section is omitted when empty.
	s.Singular = nil
	var plain bytes.Buffer
	if err := Write(&plain, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if bytes.Contains(plain.Bytes(), []byte("singular")) {
		t.Fatal("empty Singular must be omitted from the encoding")
	}
}

// TestWriteDeterministic also pins the bytes, on the EM layout (a Best
// block, no singular values) and on the sketch layout (no Best, singular
// values), so snapshots written by any version of the program compare
// equal.
func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, sampleSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, sampleSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same snapshot differ")
	}
	sketch := sampleSnapshot(7)
	sketch.Best = nil
	sketch.Singular = []float64{12.5, math.Pi * 1e7, 1e-17, 5e-324}
	for _, c := range []struct {
		s    *Snapshot
		want uint64
	}{
		{sampleSnapshot(7), 0xb8a11731f76c69d8},
		{sketch, 0x464c52f45ff8d9c8},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, c.s); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Fatalf("snapshot fingerprint %#016x, pinned %#016x:\n%s", got, c.want, buf.Bytes())
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got.Bytes = c.s.Bytes
		if !reflect.DeepEqual(got, c.s) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c.s)
		}
	}
}

// shapedSnapshot is a snapshot with the shapes of a dims x d fit after five
// iterations, as the MapReduce driver writes it every iteration.
func shapedSnapshot(dims, d int) *Snapshot {
	s := sampleSnapshot(5)
	s.Dims, s.D, s.Best = dims, d, nil
	s.Mean = make([]float64, dims)
	s.C = matrix.NewDense(dims, d)
	for i := range s.Mean {
		s.Mean[i] = math.Sqrt(float64(i + 2))
	}
	for i := range s.C.Data {
		s.C.Data[i] = 1 / float64(i+7)
	}
	s.History = make([]HistoryEntry, 5)
	for i := range s.History {
		s.History[i] = HistoryEntry{Iter: i + 1, Err: 1 / float64(i+3), Accuracy: 0.9, SS: 0.1, SimSeconds: float64(i) * 1.7}
	}
	return s
}

// TestWriteAllocs gates the writer's allocations: a fixed handful for the
// buffers, none per float, so one bound holds at both shapes.
func TestWriteAllocs(t *testing.T) {
	for _, shape := range [][2]int{{200, 10}, {2000, 50}} {
		s := shapedSnapshot(shape[0], shape[1])
		allocs := testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("Write of a %dx%d snapshot: %.0f allocations, want at most 10", shape[0], shape[1], allocs)
		}
	}
}

func TestSaveLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest(empty) = %v, want ErrNoCheckpoint", err)
	}
	for _, iter := range []int{2, 10, 4} {
		if _, err := Save(dir, sampleSnapshot(iter)); err != nil {
			t.Fatalf("Save(%d): %v", iter, err)
		}
	}
	got, err := Latest(dir)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if got.Iter != 10 {
		t.Fatalf("Latest picked iter %d, want 10", got.Iter)
	}
	if got.Bytes <= 0 {
		t.Fatalf("Latest did not set Bytes: %d", got.Bytes)
	}
	if _, err := Latest(filepath.Join(dir, "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest(missing dir) = %v, want ErrNoCheckpoint", err)
	}
}

// toV1 rewrites a serialized v3 snapshot into the v1 layout: version-1
// header, no fit line, no checksum trailer, and the 15-value metrics line
// (the two data-integrity values did not exist yet). Read must reject the
// result.
func toV1(t testing.TB, text string) string {
	t.Helper()
	lines := strings.Split(toV2Body(t, text), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "metrics ") {
			for range 2 {
				l = l[:strings.LastIndexByte(l, ' ')]
			}
			lines[i] = l
		}
	}
	return strings.Replace(strings.Join(lines, "\n"), "spcackpt 2", "spcackpt 1", 1)
}

// toV2Body rewrites a serialized v3 snapshot into the body of a v2 one:
// version-2 header, no fit line, and no checksum trailer.
func toV2Body(t testing.TB, text string) string {
	t.Helper()
	if len(text) < trailerLen || !strings.HasPrefix(text[len(text)-trailerLen:], "checksum ") {
		t.Fatal("serialized snapshot has no checksum trailer")
	}
	body := strings.Replace(text[:len(text)-trailerLen], "spcackpt 3\n", "spcackpt 2\n", 1)
	hdr, rest, _ := strings.Cut(body, "\n")
	_, rest, _ = strings.Cut(rest, "\n") // the fit line
	return hdr + "\n" + rest
}

// reseal replaces the checksum trailer of a serialized snapshot body with a
// fresh one, so structural damage reaches the field parser instead of being
// caught by the checksum.
func reseal(t testing.TB, body string) string {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTrailerWriter(&buf)
	if _, err := io.WriteString(tw, body); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteTrailer(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReadV1 pins the rejection of version-1 files, the only format without
// a checksum: a well-formed v1 snapshot fails with ErrBadSnapshot.
func TestReadV1(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	_, err := Read(strings.NewReader(toV1(t, buf.String())))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("Read(v1) = %v, want ErrBadSnapshot for unsupported version 1", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	body := text[:len(text)-trailerLen]
	flipped := []byte(text)
	flipped[len(flipped)/3] ^= 0x01
	cases := map[string]string{
		"empty":           "",
		"bad header":      "nonsense\n",
		"bad version":     strings.Replace(text, "spcackpt 3", "spcackpt 99", 1),
		"truncated":       text[:len(text)/2],
		"flipped bit":     string(flipped),
		"missing trailer": text[:len(text)-trailerLen],
		"v1":              toV1(t, text),
		// A well-formed, checksummed v2 file names no fit.
		"v2": reseal(t, toV2Body(t, text)),
		// Structural damage under a valid checksum exercises the parse
		// errors directly rather than the trailer check.
		"resealed truncated": reseal(t, body[:len(body)/2]),
		"resealed bad float": reseal(t, strings.Replace(body, "ss ", "ss x", 1)),
		// C.Data[0] serializes as "0.001 "; swap it for NaN.
		"resealed nonfinite C":                  reseal(t, strings.Replace(body, "0.001 ", "NaN ", 1)),
		"resealed history count past its lines": reseal(t, strings.Replace(body, "history 2\n", "history 1048576\n", 1)),
		"resealed negative history count":       reseal(t, strings.Replace(body, "history 2\n", "history -1\n", 1)),
		"resealed loose line":                   reseal(t, strings.Replace(body, "iter 7\n", "iter  7\n", 1)),
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrBadSnapshot", name, err)
		}
		// A rejected file costs memory in proportion to its bytes, never to
		// the counts it declares.
		if runtime.ReadMemStats(&after); after.TotalAlloc-before.TotalAlloc > 8<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(in), after.TotalAlloc-before.TotalAlloc)
		}
	}
}

// TestCorruptAndQuarantine drives the multi-generation degradation path: the
// newest snapshot gets a flipped bit, the next a torn write, and LatestReport
// must fall back to the oldest intact generation while renaming the bad files
// aside (not deleting them) exactly once.
func TestCorruptAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	for _, iter := range []int{1, 2, 3} {
		if _, err := Save(dir, sampleSnapshot(iter)); err != nil {
			t.Fatalf("Save(%d): %v", iter, err)
		}
	}
	if err := Corrupt(filepath.Join(dir, FileName(3)), false, 40); err != nil {
		t.Fatalf("Corrupt(bit flip): %v", err)
	}
	if err := Corrupt(filepath.Join(dir, FileName(2)), true, 30); err != nil {
		t.Fatalf("Corrupt(torn): %v", err)
	}
	s, report, err := LatestReport(dir)
	if err != nil {
		t.Fatalf("LatestReport: %v", err)
	}
	if s.Iter != 1 {
		t.Fatalf("resumed from iter %d, want 1", s.Iter)
	}
	if len(report.Quarantined) != 2 {
		t.Fatalf("quarantined %d files, want 2: %+v", len(report.Quarantined), report.Quarantined)
	}
	if report.Quarantined[0].Name != FileName(3) || report.Quarantined[1].Name != FileName(2) {
		t.Fatalf("quarantine order wrong: %+v", report.Quarantined)
	}
	for _, q := range report.Quarantined {
		if !errors.Is(q.Err, ErrBadSnapshot) {
			t.Errorf("%s: quarantine error %v does not wrap ErrBadSnapshot", q.Name, q.Err)
		}
		if _, err := os.Stat(q.Path); err != nil {
			t.Errorf("quarantined file %s missing: %v", q.Path, err)
		}
		if _, err := os.Stat(filepath.Join(dir, q.Name)); !os.IsNotExist(err) {
			t.Errorf("original %s still present after quarantine", q.Name)
		}
	}
	// A second scan sees only the intact generation and quarantines nothing.
	s2, report2, err := LatestReport(dir)
	if err != nil {
		t.Fatalf("second LatestReport: %v", err)
	}
	if s2.Iter != 1 || len(report2.Quarantined) != 0 {
		t.Fatalf("second scan: iter %d, %d quarantined; want 1, 0", s2.Iter, len(report2.Quarantined))
	}
}

func TestLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, sampleSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	if err := Corrupt(filepath.Join(dir, FileName(1)), true, 0); err != nil {
		t.Fatal(err)
	}
	_, report, err := LatestReport(dir)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LatestReport(all corrupt) = %v, want ErrNoCheckpoint", err)
	}
	if len(report.Quarantined) != 1 {
		t.Fatalf("quarantined %d files, want 1", len(report.Quarantined))
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for iter := 1; iter <= 5; iter++ {
		if _, err := Save(dir, sampleSnapshot(iter)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after Prune(keep=2): %v", names)
	}
	got, err := Latest(dir)
	if err != nil || got.Iter != 5 {
		t.Fatalf("Latest after prune: iter %d, err %v; want 5, nil", got.Iter, err)
	}
	// keep <= 0 means DefaultKeep; with 2 files left it is a no-op.
	if err := Prune(dir, 0); err != nil {
		t.Fatalf("Prune(0): %v", err)
	}
	if got, _ := Latest(dir); got == nil || got.Iter != 5 {
		t.Fatal("Prune(0) removed files it should have kept")
	}
	if err := Prune(filepath.Join(dir, "missing"), 3); err != nil {
		t.Fatalf("Prune(missing dir): %v", err)
	}
}

func TestValidate(t *testing.T) {
	s := sampleSnapshot(7)
	if err := s.Validate("spca-spark", 40, 5, 2, 42); err != nil {
		t.Fatalf("Validate(matching) = %v", err)
	}
	var mm *MismatchError
	if err := s.Validate("spca-spark", 41, 5, 2, 42); !errors.As(err, &mm) {
		t.Fatalf("Validate(wrong n) = %v, want MismatchError", err)
	}
	if err := s.Validate("spca-spark", 40, 5, 2, 43); !errors.As(err, &mm) {
		t.Fatalf("Validate(wrong seed) = %v, want MismatchError", err)
	}
	// Same shapes and seed, another fit: the snapshot is not this run's.
	if err := s.Validate("spca-mapreduce", 40, 5, 2, 42); !errors.As(err, &mm) || mm.Field != "fit" {
		t.Fatalf("Validate(wrong fit) = %v, want MismatchError on fit", err)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, sampleSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
