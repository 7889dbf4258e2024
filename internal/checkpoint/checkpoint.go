// Package checkpoint implements durable snapshots of the EM driver state, the
// basis of driver crash/resume in spca.Fit. A Snapshot captures everything the
// driver needs to continue an interrupted run and land on a bit-identical
// final model: the current components W/C and variance ss, the data mean and
// centering constant ss1, the iteration index, the RNG seed (the engines
// derive every random draw — initial components, sample-row selection — purely
// from it, so the seed *is* the stream cursor), the accumulated cluster
// Metrics, the per-iteration History, and the numerical-guard state (standing
// ridge level, divergence counter, best-model rollback target).
//
// The on-disk format is a versioned text container, written and read by the
// text codec of internal/matrix: a "spcackpt <version>" header, a "fit
// <name>" line naming the fit that wrote it, named scalar lines whose floats
// take the shortest form that parses back to the same float64 — the
// property the bit-identical resume guarantee rests on — and embedded dmx
// blocks (the internal/matrix dense text format) for the component
// matrices. Snapshots are written atomically (tmp file + rename), so a
// crash mid-write never leaves a half-readable checkpoint behind.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

// Version is the snapshot format version. Readers reject every other version
// rather than guessing. Version 2 added the FNV-64a checksum trailer and the
// data-integrity metrics fields, so every accepted snapshot has passed its
// checksum. Version 3 added the fit line; a v2 file names no fit, so it is
// rejected rather than resumed by a fit it may not belong to.
const Version = 3

// DefaultKeep is the number of snapshot generations Prune retains when the
// caller does not choose one. Three generations means a resume survives the
// newest snapshot being corrupt (torn write, flipped bit) twice over.
const DefaultKeep = 3

// ErrNoCheckpoint is returned by Latest when the directory holds no readable
// snapshot — the resume path treats it as "start from scratch".
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// ErrBadSnapshot is the sentinel wrapped by every parse failure, so callers
// can distinguish a corrupt snapshot from an I/O error with errors.Is.
var ErrBadSnapshot = errors.New("checkpoint: malformed snapshot")

// MismatchError reports a snapshot that parsed fine but belongs to a
// different run (a different fit, data shape, rank, or seed). Resuming from
// it would silently produce a model of the wrong problem, so Validate
// refuses.
type MismatchError struct {
	Field     string
	Want, Got string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: snapshot %s mismatch: snapshot has %s, run has %s", e.Field, e.Got, e.Want)
}

// HistoryEntry mirrors one per-iteration record of the EM history. It is a
// separate type from ppca.IterationStat (checkpoint sits below ppca in the
// import graph); the driver converts losslessly in both directions.
type HistoryEntry struct {
	Iter         int
	Err          float64
	Accuracy     float64
	SS           float64
	SimSeconds   float64
	Ridge        float64
	RidgeRetries int
	Rollback     bool
}

// BestState is the divergence-guard rollback target: the lowest-error model
// seen so far. Present only when the divergence guard is armed and at least
// one iteration has completed.
type BestState struct {
	Iter int
	Err  float64
	SS   float64
	C    *matrix.Dense
}

// Snapshot is the full persistable EM driver state after iteration Iter.
type Snapshot struct {
	Iter int // last completed EM iteration (1-based)

	// Problem identity, checked by Validate before a resume. Fit names the
	// fit that wrote the snapshot (e.g. "spca-spark", "mahout-pca").
	Fit        string
	N, Dims, D int
	Seed       uint64

	// FaultEpoch is the engine's fault-decision cursor at snapshot time (the
	// MapReduce job sequence number / Spark action epoch). Restoring it lets
	// a resumed driver draw the exact same task faults an uninterrupted run
	// would for the remaining jobs. Zero for single-machine fits.
	FaultEpoch int64

	// Model state.
	SS   float64
	SS1  float64 // centering constant (Frobenius-norm accumulator)
	Mean []float64
	C    *matrix.Dense

	// Numerical-guard state.
	RidgeLevel int // standing ridge escalation level (0 = none)
	Rising     int // consecutive iterations with rising reconstruction error
	Best       *BestState

	// Singular holds the singular values that accompany C for the sketch
	// engines (rsvd), whose best-of-rounds state includes the small-SVD
	// spectrum; recomputing it on resume would disturb the simulated clock.
	// Empty for EM snapshots, and the section is omitted on disk when empty,
	// so EM snapshot bytes are unchanged.
	Singular []float64

	// Simulated-cluster accounting at snapshot time; restored wholesale on
	// resume so the re-executed iterations replay the same simulated clock.
	Metrics cluster.Metrics

	History []HistoryEntry

	// Bytes is the serialized size, set by Write/Save/Read/Latest. It is
	// derived, not stored, and is what the resume path charges as the
	// snapshot read.
	Bytes int64
}

// CostBytes is the simulation-model size of the snapshot: what writing it to
// durable storage is charged as. It models a compact binary encoding (8 bytes
// per float64 of state plus fixed per-record overheads) and deliberately
// depends only on the state *shapes* — never on the serialized text length or
// the metric values — so the charge at a given iteration is bit-identical
// between an uninterrupted run and a crashed+resumed one, which is what keeps
// their simulated clocks (and hence golden fingerprints) equal.
func (s *Snapshot) CostBytes() int64 {
	b := int64(256) // header, scalars, guard state, metrics block
	b += int64(len(s.Mean)) * 8
	if s.C != nil {
		b += int64(s.C.R) * int64(s.C.C) * 8
	}
	b += int64(len(s.History)) * 64
	if s.Best != nil && s.Best.C != nil {
		b += 32 + int64(s.Best.C.R)*int64(s.Best.C.C)*8
	}
	b += int64(len(s.Singular)) * 8
	return b
}

// Validate checks that the snapshot belongs to the run described by the
// arguments, returning a *MismatchError (or *ErrBadSnapshot-wrapped shape
// error) if not.
func (s *Snapshot) Validate(fit string, n, dims, d int, seed uint64) error {
	switch {
	case s.Fit != fit:
		return &MismatchError{Field: "fit", Want: strconv.Quote(fit), Got: strconv.Quote(s.Fit)}
	case s.N != n:
		return &MismatchError{Field: "row count", Want: strconv.Itoa(n), Got: strconv.Itoa(s.N)}
	case s.Dims != dims:
		return &MismatchError{Field: "column count", Want: strconv.Itoa(dims), Got: strconv.Itoa(s.Dims)}
	case s.D != d:
		return &MismatchError{Field: "rank", Want: strconv.Itoa(d), Got: strconv.Itoa(s.D)}
	case s.Seed != seed:
		return &MismatchError{Field: "seed", Want: strconv.FormatUint(seed, 10), Got: strconv.FormatUint(s.Seed, 10)}
	}
	if s.C == nil || s.C.R != dims || s.C.C != d || len(s.Mean) != dims {
		cr, cc := 0, 0
		if s.C != nil {
			cr, cc = s.C.R, s.C.C
		}
		return fmt.Errorf("%w: state shapes do not match header (C is %dx%d, mean has %d values; want C %dx%d, mean %d)",
			ErrBadSnapshot, cr, cc, len(s.Mean), dims, d, dims)
	}
	return nil
}

// Write serializes s. The output is byte-deterministic for equal snapshots.
// On success s.Bytes is set to the serialized size.
func Write(w io.Writer, s *Snapshot) error {
	cw := NewTrailerWriter(w)
	t := matrix.NewTextWriter(cw)
	t.Word("spcackpt").Int(Version).End()
	t.Word("fit").Word(s.Fit).End()
	t.Word("iter").Int(int64(s.Iter)).End()
	t.Word("shape").Int(int64(s.N)).Int(int64(s.Dims)).Int(int64(s.D)).End()
	t.Word("seed").Uint(s.Seed).End()
	t.Word("epoch").Int(s.FaultEpoch).End()
	t.Word("ss").Float(s.SS).Float(s.SS1).End()
	t.Word("guard").Int(int64(s.RidgeLevel)).Int(int64(s.Rising)).End()
	m := &s.Metrics
	t.Word("metrics").Int(m.ComputeOps).Int(m.ShuffleBytes).Int(m.DiskBytes).Int(m.MaterializedBytes).
		Int(m.Tasks).Int(m.Phases).Float(m.SimSeconds).Int(m.DriverPeak).Int(m.FailedAttempts).
		Int(m.RecomputedOps).Int(m.SpeculativeTasks).Float(m.RecoverySeconds).Int(m.CheckpointBytes).
		Float(m.CheckpointSeconds).Int(m.DriverRestarts).Int(m.CorruptPayloads).Float(m.ReverifySeconds).End()
	t.Word("mean").Floats(s.Mean).End()
	t.Word("history").Int(int64(len(s.History))).End()
	for _, h := range s.History {
		rb := int64(0)
		if h.Rollback {
			rb = 1
		}
		t.Int(int64(h.Iter)).Float(h.Err).Float(h.Accuracy).Float(h.SS).Float(h.SimSeconds).Float(h.Ridge).
			Int(int64(h.RidgeRetries)).Int(rb).End()
	}
	if b := s.Best; b != nil {
		t.Word("best").Int(int64(b.Iter)).Float(b.Err).Float(b.SS).End()
		t.Dense(b.C)
	} else {
		t.Word("best").Word("none").End()
	}
	if len(s.Singular) > 0 {
		t.Word("singular").Floats(s.Singular).End()
	}
	t.Word("components").End()
	t.Dense(s.C)
	if err := t.Flush(); err != nil {
		return err
	}
	// Checksum trailer: FNV-64a over every byte written so far. The trailer
	// itself is counted in Bytes but not hashed, so the reader verifies
	// data[:len-trailerLen] against the hex digest in the last line.
	if err := cw.WriteTrailer(); err != nil {
		return err
	}
	s.Bytes = cw.Bytes()
	return nil
}

// trailerLen is the byte length of the v2 checksum trailer line:
// "checksum " + 16 hex digits + "\n".
const trailerLen = len("checksum ") + 16 + 1

// Read parses a snapshot written by Write, returning errors that wrap
// ErrBadSnapshot for any malformed input. The whole-file FNV-64a checksum
// trailer is verified before any field after the header is parsed, so a
// flipped bit or torn write anywhere in the file is detected up front. Every
// line must be exactly as Write writes it. s.Bytes is NOT set (the reader may
// not be a file); Save/Latest set it from the file size.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading snapshot: %v", ErrBadSnapshot, err)
	}
	t := matrix.NewTextReader(bytes.NewReader(data))
	t.Expect("spcackpt")
	if ver := t.Int(); t.Err() != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrBadSnapshot, t.Err())
	} else if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrBadSnapshot, ver, Version)
	}
	if _, err := VerifyTrailer(data); err != nil {
		return nil, err
	}
	s, err := parse(t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s, nil
}

// parse reads the lines after a snapshot's header. It stops at the end of
// the components block, so it never reads the checksum trailer.
func parse(t *matrix.TextReader) (*Snapshot, error) {
	s := &Snapshot{Fit: t.Raw("fit ")}
	t.Expect("iter")
	s.Iter = t.Int()
	t.Expect("shape")
	s.N, s.Dims, s.D = t.Int(), t.Int(), t.Int()
	if t.Err() == nil && (s.N < 0 || s.Dims <= 0 || s.D <= 0 || s.Dims > 1<<30 || s.D > 1<<20) {
		t.Fail("implausible shape %d x %d rank %d", s.N, s.Dims, s.D)
	}
	t.Expect("seed")
	s.Seed = t.Uint()
	t.Expect("epoch")
	s.FaultEpoch = t.Int64()
	t.Expect("ss")
	s.SS, s.SS1 = t.Float(), t.Float()
	t.Expect("guard")
	s.RidgeLevel, s.Rising = t.Int(), t.Int()
	t.Expect("metrics")
	m := &s.Metrics
	m.ComputeOps, m.ShuffleBytes, m.DiskBytes, m.MaterializedBytes = t.Int64(), t.Int64(), t.Int64(), t.Int64()
	m.Tasks, m.Phases, m.SimSeconds, m.DriverPeak = t.Int64(), t.Int64(), t.Float(), t.Int64()
	m.FailedAttempts, m.RecomputedOps, m.SpeculativeTasks = t.Int64(), t.Int64(), t.Int64()
	m.RecoverySeconds, m.CheckpointBytes, m.CheckpointSeconds = t.Float(), t.Int64(), t.Float()
	m.DriverRestarts, m.CorruptPayloads, m.ReverifySeconds = t.Int64(), t.Int64(), t.Float()
	t.Expect("mean")
	if s.Mean = t.Floats(nil); t.Err() == nil && len(s.Mean) != s.Dims {
		t.Fail("mean has %d values, want %d", len(s.Mean), s.Dims)
	}
	t.Expect("history")
	nh := t.Int()
	if t.Err() == nil && (nh < 0 || nh > 1<<20) {
		t.Fail("implausible history count %d", nh)
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	// The entries are appended as their lines arrive, so a count the lines
	// do not back costs no memory.
	s.History = make([]HistoryEntry, 0, min(nh, 64))
	for i := 0; i < nh && t.Err() == nil; i++ {
		var h HistoryEntry
		t.Expect("")
		h.Iter, h.Err, h.Accuracy, h.SS = t.Int(), t.Float(), t.Float(), t.Float()
		h.SimSeconds, h.Ridge, h.RidgeRetries = t.Float(), t.Float(), t.Int()
		h.Rollback = t.Int() != 0
		s.History = append(s.History, h)
	}
	t.Expect("best")
	if !t.Is("none") {
		s.Best = &BestState{Iter: t.Int(), Err: t.Float(), SS: t.Float()}
		s.Best.C = t.Dense()
	}
	// The singular-value section is optional: only the sketch engines'
	// snapshots carry one.
	if t.Expect(""); t.Is("singular") {
		if s.Singular = t.Floats(nil); len(s.Singular) == 0 {
			t.Fail("empty singular line")
		}
		t.Expect("")
	}
	if !t.Is("components") {
		t.Fail("want the components line")
	}
	s.C = t.Dense()
	if err := t.Err(); err != nil {
		return nil, err
	}
	if s.C.R != s.Dims || s.C.C != s.D || s.Best != nil && (s.Best.C.R != s.Dims || s.Best.C.C != s.D) {
		return nil, fmt.Errorf("a dmx block is not %d x %d", s.Dims, s.D)
	}
	return s, nil
}

// FileName returns the snapshot file name for an iteration. Zero-padding
// keeps lexicographic order equal to iteration order.
func FileName(iter int) string { return fmt.Sprintf("ckpt-%06d.spck", iter) }

// Save atomically writes s into dir as FileName(s.Iter), creating dir if
// needed, and returns the serialized size in bytes (also stored in s.Bytes).
func Save(dir string, s *Snapshot) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := WriteFile(filepath.Join(dir, FileName(s.Iter)), func(w io.Writer) error { return Write(w, s) }); err != nil {
		return 0, err
	}
	return s.Bytes, nil
}

// Corrupt damages the snapshot file at path in place, simulating the two
// storage failure modes the scan path must survive: a torn write (the file
// truncated at offset, as if the machine died mid-flush of a non-atomic
// writer) or a flipped bit (the low bit of the byte at offset XOR-ed, as
// silent media corruption). offset is clamped into the file. It exists for
// fault injection (FaultPlan.SnapshotCorrupt) and tests; production code
// never calls it.
func Corrupt(path string, torn bool, offset int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == 0 {
		return nil
	}
	if offset < 0 {
		offset = 0
	}
	if offset >= size {
		offset = size - 1
	}
	if torn {
		return os.Truncate(path, offset)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offset); err != nil {
		return err
	}
	b[0] ^= 0x01
	_, err = f.WriteAt(b, offset)
	return err
}

// QuarantinedSnapshot records one snapshot file that failed verification
// during a Latest/LatestReport scan and was renamed aside.
type QuarantinedSnapshot struct {
	Name  string // original file name (ckpt-NNNNNN.spck)
	Path  string // current path after the quarantine rename
	Err   error  // why it was rejected (wraps ErrBadSnapshot)
	Bytes int64  // on-disk size of the bad file
}

// ScanReport describes what a LatestReport scan found: which snapshot files
// (newest first) failed verification and were quarantined before a verifiable
// generation was reached.
type ScanReport struct {
	Quarantined []QuarantinedSnapshot
}

// Quarantine renames a file that failed verification aside, appending
// ".quarantined" to its name, and returns the new path. The renamed file no
// longer matches the ckpt-*.spck or model-*.spcm filters, so later scans,
// Prune, and resume never look at it again, but the evidence stays on disk
// for inspection instead of being deleted.
func Quarantine(path string) (string, error) {
	q := path + ".quarantined"
	return q, os.Rename(path, q)
}

// LatestReport loads the newest *verifiable* snapshot in dir, scanning
// generations newest-to-oldest. A generation that fails to parse (torn write,
// flipped bit, bad version) is renamed aside with a ".quarantined" suffix and
// recorded in the report, and the scan falls back to the next-older
// generation — this is what multi-generation retention (Prune/DefaultKeep)
// buys. It returns ErrNoCheckpoint when the directory is missing, holds no
// snapshot files, or every generation was quarantined (the caller starts from
// scratch); the report is non-nil in every case.
func LatestReport(dir string) (*Snapshot, *ScanReport, error) {
	report := &ScanReport{}
	names, err := generations(dir)
	if err != nil {
		return nil, report, err
	}
	if len(names) == 0 {
		return nil, report, ErrNoCheckpoint
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		s, size, rerr := readFile(path)
		if rerr == nil {
			return s, report, nil
		}
		if !errors.Is(rerr, ErrBadSnapshot) {
			// A real I/O error (permissions, disappearing directory) is not
			// corruption; surface it rather than quarantining sound data.
			return nil, report, rerr
		}
		qpath, err := Quarantine(path)
		if err != nil {
			return nil, report, fmt.Errorf("quarantining %s: %v (rejected because: %w)", path, err, rerr)
		}
		report.Quarantined = append(report.Quarantined, QuarantinedSnapshot{
			Name:  names[i],
			Path:  qpath,
			Err:   rerr,
			Bytes: size,
		})
	}
	return nil, report, ErrNoCheckpoint
}

// readFile opens and parses one snapshot file, returning its on-disk size
// even when parsing fails (for quarantine reporting).
func readFile(path string) (*Snapshot, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	s, err := Read(f)
	if err != nil {
		return nil, size, fmt.Errorf("reading %s: %w", path, err)
	}
	s.Bytes = size
	return s, size, nil
}

// Latest loads the newest verifiable snapshot in dir, quarantining any newer
// corrupt generations along the way (see LatestReport, which also returns
// what was quarantined). It returns ErrNoCheckpoint when no generation is
// usable.
func Latest(dir string) (*Snapshot, error) {
	s, _, err := LatestReport(dir)
	return s, err
}

// Prune removes the oldest snapshot generations in dir beyond the newest
// keep, so a long run does not accumulate unbounded checkpoint files while
// still retaining enough history for LatestReport to fall back over corrupt
// generations. keep <= 0 means DefaultKeep. Quarantined files are never
// pruned. Missing directories are fine (nothing to prune).
func Prune(dir string, keep int) error {
	if keep <= 0 {
		keep = DefaultKeep
	}
	names, err := generations(dir)
	if err != nil || len(names) <= keep {
		return err
	}
	for _, n := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}

// generations lists the snapshot files in dir, oldest first: os.ReadDir
// sorts by name, and FileName zero-pads the iteration. A missing dir holds
// none.
func generations(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".spck") {
			names = append(names, n)
		}
	}
	return names, nil
}
