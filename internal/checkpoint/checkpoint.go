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
// The on-disk format is a versioned text container: a "spcackpt <version>"
// header, a "fit <name>" line naming the fit that wrote it, named scalar
// lines using strconv.FormatFloat(v, 'g', -1, 64) —
// which round-trips every float64 exactly, the property the bit-identical
// resume guarantee rests on — and embedded dmx blocks (the internal/matrix/io
// dense container) for the component matrices. Snapshots are written
// atomically (tmp file + rename), so a crash mid-write never leaves a
// half-readable checkpoint behind.
package checkpoint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
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

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write serializes s. The output is byte-deterministic for equal snapshots.
// On success s.Bytes is set to the serialized size.
func Write(w io.Writer, s *Snapshot) error {
	cw := NewTrailerWriter(w)
	bw := bufio.NewWriter(cw)
	fmt.Fprintf(bw, "spcackpt %d\n", Version)
	fmt.Fprintf(bw, "fit %s\n", s.Fit)
	fmt.Fprintf(bw, "iter %d\n", s.Iter)
	fmt.Fprintf(bw, "shape %d %d %d\n", s.N, s.Dims, s.D)
	fmt.Fprintf(bw, "seed %d\n", s.Seed)
	fmt.Fprintf(bw, "epoch %d\n", s.FaultEpoch)
	fmt.Fprintf(bw, "ss %s %s\n", ff(s.SS), ff(s.SS1))
	fmt.Fprintf(bw, "guard %d %d\n", s.RidgeLevel, s.Rising)
	m := s.Metrics
	fmt.Fprintf(bw, "metrics %d %d %d %d %d %d %s %d %d %d %d %s %d %s %d %d %s\n",
		m.ComputeOps, m.ShuffleBytes, m.DiskBytes, m.MaterializedBytes, m.Tasks, m.Phases,
		ff(m.SimSeconds), m.DriverPeak, m.FailedAttempts, m.RecomputedOps, m.SpeculativeTasks,
		ff(m.RecoverySeconds), m.CheckpointBytes, ff(m.CheckpointSeconds), m.DriverRestarts,
		m.CorruptPayloads, ff(m.ReverifySeconds))
	bw.WriteString("mean")
	for _, v := range s.Mean {
		bw.WriteByte(' ')
		bw.WriteString(ff(v))
	}
	bw.WriteByte('\n')
	fmt.Fprintf(bw, "history %d\n", len(s.History))
	for _, h := range s.History {
		rb := 0
		if h.Rollback {
			rb = 1
		}
		fmt.Fprintf(bw, "%d %s %s %s %s %s %d %d\n",
			h.Iter, ff(h.Err), ff(h.Accuracy), ff(h.SS), ff(h.SimSeconds), ff(h.Ridge), h.RidgeRetries, rb)
	}
	if s.Best != nil {
		fmt.Fprintf(bw, "best %d %s %s\n", s.Best.Iter, ff(s.Best.Err), ff(s.Best.SS))
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := matrix.WriteDense(cw, s.Best.C); err != nil {
			return err
		}
	} else {
		bw.WriteString("best none\n")
	}
	if len(s.Singular) > 0 {
		bw.WriteString("singular")
		for _, v := range s.Singular {
			bw.WriteByte(' ')
			bw.WriteString(ff(v))
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("components\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := matrix.WriteDense(cw, s.C); err != nil {
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

// checksumOffset/checksumPrime are the FNV-64a parameters for the snapshot
// body checksum.
const (
	checksumOffset = 14695981039346656037
	checksumPrime  = 1099511628211
)

// Read parses a snapshot written by Write, returning errors that wrap
// ErrBadSnapshot for any malformed input. The whole-file FNV-64a checksum
// trailer is verified before any field is parsed, so a flipped bit or torn
// write anywhere in the file is detected up front. s.Bytes is NOT set (the
// reader may not be a file); Save/Latest set it from the file size.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading snapshot: %v", ErrBadSnapshot, err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: truncated before header", ErrBadSnapshot)
	}
	hdr := string(data[:nl])
	var ver int
	if _, err := fmt.Sscanf(hdr, "spcackpt %d", &ver); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadSnapshot, hdr)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrBadSnapshot, ver, Version)
	}
	body, err := VerifyTrailer(data)
	if err != nil {
		return nil, err
	}

	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line := func(what string) (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", fmt.Errorf("%w: reading %s: %v", ErrBadSnapshot, what, err)
			}
			return "", fmt.Errorf("%w: truncated before %s", ErrBadSnapshot, what)
		}
		return sc.Text(), nil
	}
	if _, err := line("header"); err != nil {
		return nil, err
	}

	s := &Snapshot{}
	if l, err := line("fit"); err != nil {
		return nil, err
	} else if name, ok := strings.CutPrefix(l, "fit "); !ok {
		return nil, fmt.Errorf("%w: bad fit line %q", ErrBadSnapshot, l)
	} else {
		s.Fit = name
	}
	if l, err := line("iter"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "iter %d", &s.Iter); err != nil {
		return nil, fmt.Errorf("%w: bad iter line %q", ErrBadSnapshot, l)
	}
	if l, err := line("shape"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "shape %d %d %d", &s.N, &s.Dims, &s.D); err != nil {
		return nil, fmt.Errorf("%w: bad shape line %q", ErrBadSnapshot, l)
	}
	if s.N < 0 || s.Dims <= 0 || s.D <= 0 || s.Dims > 1<<30 || s.D > 1<<20 {
		return nil, fmt.Errorf("%w: implausible shape %d x %d rank %d", ErrBadSnapshot, s.N, s.Dims, s.D)
	}
	if l, err := line("seed"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "seed %d", &s.Seed); err != nil {
		return nil, fmt.Errorf("%w: bad seed line %q", ErrBadSnapshot, l)
	}
	if l, err := line("epoch"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "epoch %d", &s.FaultEpoch); err != nil {
		return nil, fmt.Errorf("%w: bad epoch line %q", ErrBadSnapshot, l)
	}
	if l, err := line("ss"); err != nil {
		return nil, err
	} else {
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != "ss" {
			return nil, fmt.Errorf("%w: bad ss line %q", ErrBadSnapshot, l)
		}
		if s.SS, err = parseF(f[1]); err != nil {
			return nil, err
		}
		if s.SS1, err = parseF(f[2]); err != nil {
			return nil, err
		}
	}
	if l, err := line("guard"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "guard %d %d", &s.RidgeLevel, &s.Rising); err != nil {
		return nil, fmt.Errorf("%w: bad guard line %q", ErrBadSnapshot, l)
	}

	ml, err := line("metrics")
	if err != nil {
		return nil, err
	}
	mf := strings.Fields(ml)
	if len(mf) != 18 || mf[0] != "metrics" {
		return nil, fmt.Errorf("%w: bad metrics line %q", ErrBadSnapshot, ml)
	}
	m := &s.Metrics
	ints := []*int64{&m.ComputeOps, &m.ShuffleBytes, &m.DiskBytes, &m.MaterializedBytes, &m.Tasks, &m.Phases,
		nil, &m.DriverPeak, &m.FailedAttempts, &m.RecomputedOps, &m.SpeculativeTasks,
		nil, &m.CheckpointBytes, nil, &m.DriverRestarts, &m.CorruptPayloads, nil}
	floats := map[int]*float64{6: &m.SimSeconds, 11: &m.RecoverySeconds, 13: &m.CheckpointSeconds, 16: &m.ReverifySeconds}
	for i, field := range mf[1:] {
		if fp, ok := floats[i]; ok {
			if *fp, err = parseF(field); err != nil {
				return nil, err
			}
			continue
		}
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad metrics field %q", ErrBadSnapshot, field)
		}
		*ints[i] = v
	}

	meanLine, err := line("mean")
	if err != nil {
		return nil, err
	}
	meanFields := strings.Fields(meanLine)
	if len(meanFields) == 0 || meanFields[0] != "mean" {
		return nil, fmt.Errorf("%w: bad mean line", ErrBadSnapshot)
	}
	if len(meanFields)-1 != s.Dims {
		return nil, fmt.Errorf("%w: mean has %d values, want %d", ErrBadSnapshot, len(meanFields)-1, s.Dims)
	}
	s.Mean = make([]float64, s.Dims)
	for i, field := range meanFields[1:] {
		if s.Mean[i], err = parseF(field); err != nil {
			return nil, err
		}
	}

	var nh int
	if l, err := line("history"); err != nil {
		return nil, err
	} else if _, err := fmt.Sscanf(l, "history %d", &nh); err != nil || nh < 0 || nh > 1<<20 {
		return nil, fmt.Errorf("%w: bad history count line %q", ErrBadSnapshot, l)
	}
	s.History = make([]HistoryEntry, nh)
	for i := range s.History {
		l, err := line("history entry")
		if err != nil {
			return nil, err
		}
		f := strings.Fields(l)
		if len(f) != 8 {
			return nil, fmt.Errorf("%w: bad history entry %q", ErrBadSnapshot, l)
		}
		h := &s.History[i]
		var rb int
		if h.Iter, err = strconv.Atoi(f[0]); err == nil {
			if h.Err, err = parseF(f[1]); err == nil {
				if h.Accuracy, err = parseF(f[2]); err == nil {
					if h.SS, err = parseF(f[3]); err == nil {
						if h.SimSeconds, err = parseF(f[4]); err == nil {
							if h.Ridge, err = parseF(f[5]); err == nil {
								if h.RidgeRetries, err = strconv.Atoi(f[6]); err == nil {
									rb, err = strconv.Atoi(f[7])
								}
							}
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: bad history entry %q", ErrBadSnapshot, l)
		}
		h.Rollback = rb != 0
	}

	bestLine, err := line("best")
	if err != nil {
		return nil, err
	}
	switch {
	case bestLine == "best none":
	case strings.HasPrefix(bestLine, "best "):
		b := &BestState{}
		f := strings.Fields(bestLine)
		if len(f) != 4 {
			return nil, fmt.Errorf("%w: bad best line %q", ErrBadSnapshot, bestLine)
		}
		if b.Iter, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("%w: bad best line %q", ErrBadSnapshot, bestLine)
		}
		if b.Err, err = parseF(f[2]); err != nil {
			return nil, err
		}
		if b.SS, err = parseF(f[3]); err != nil {
			return nil, err
		}
		if b.C, err = readDense(sc, s.Dims, s.D); err != nil {
			return nil, err
		}
		s.Best = b
	default:
		return nil, fmt.Errorf("%w: bad best line %q", ErrBadSnapshot, bestLine)
	}

	// Optional singular-value section (sketch-engine snapshots only; EM
	// snapshots omit it, so the reader accepts both layouts).
	marker, err := line("components")
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(marker, "singular ") {
		f := strings.Fields(marker)
		s.Singular = make([]float64, len(f)-1)
		for i, field := range f[1:] {
			if s.Singular[i], err = parseF(field); err != nil {
				return nil, err
			}
		}
		if marker, err = line("components"); err != nil {
			return nil, err
		}
	}
	if marker != "components" {
		return nil, fmt.Errorf("%w: expected components marker, got %q", ErrBadSnapshot, marker)
	}
	if s.C, err = readDense(sc, s.Dims, s.D); err != nil {
		return nil, err
	}
	return s, nil
}

func parseF(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad float %q", ErrBadSnapshot, field)
	}
	return v, nil
}

// readDense parses an embedded dmx block (the internal/matrix/io dense
// container) from the snapshot's scanner, enforcing the expected shape. It
// rejects non-finite values: driver state is checked finite before every
// snapshot write, so a non-finite entry here means corruption.
func readDense(sc *bufio.Scanner, wantR, wantC int) (*matrix.Dense, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: truncated before dmx header", ErrBadSnapshot)
	}
	var r, c int
	if _, err := fmt.Sscanf(sc.Text(), "dmx %d %d", &r, &c); err != nil {
		return nil, fmt.Errorf("%w: bad dmx header %q", ErrBadSnapshot, sc.Text())
	}
	if r != wantR || c != wantC {
		return nil, fmt.Errorf("%w: dmx block is %dx%d, want %dx%d", ErrBadSnapshot, r, c, wantR, wantC)
	}
	m := matrix.NewDense(r, c)
	for i := 0; i < r; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: dmx truncated at row %d", ErrBadSnapshot, i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != c {
			return nil, fmt.Errorf("%w: dmx row %d has %d values, want %d", ErrBadSnapshot, i, len(fields), c)
		}
		row := m.Row(i)
		for j, field := range fields {
			v, err := parseF(field)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite value at dmx row %d col %d", ErrBadSnapshot, i, j)
			}
			row[j] = v
		}
	}
	return m, nil
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
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, s); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, FileName(s.Iter))); err != nil {
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

// quarantineSuffix is appended to a bad snapshot's file name. The renamed
// file no longer matches the ckpt-*.spck filter, so later scans, Prune, and
// resume never look at it again, but the evidence stays on disk for
// inspection instead of being deleted.
const quarantineSuffix = ".quarantined"

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
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, report, ErrNoCheckpoint
		}
		return nil, report, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".spck") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, report, ErrNoCheckpoint
	}
	sort.Strings(names)
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
		qpath := path + quarantineSuffix
		if err := os.Rename(path, qpath); err != nil {
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".spck") {
			names = append(names, n)
		}
	}
	if len(names) <= keep {
		return nil
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}
