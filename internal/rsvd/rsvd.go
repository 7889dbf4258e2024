// Package rsvd implements the randomized-sketch PCA engine family (§2.3's
// modern competitor to iterative EM): distributed randomized SVD in the
// style of Li/Kluger/Tygert — a seeded Gaussian range finder with QR
// re-orthonormalized power iterations and a small SVD on the driver — on the
// MapReduce engine (FitMapReduce), and the communication-optimal distributed
// variant of Balcan et al. — every partition computes a local sketch and the
// driver merges the stacked projections — on the Spark-like engine
// (FitSpark). The Mahout-PCA baseline (internal/ssvd) is a third round
// engine on the same sketch step (FitSketch).
//
// The engines inherit the house invariants from the shared machinery:
//
//   - Deterministic seeding: every random draw derives from Options.Seed via
//     matrix.DeriveSeed with a named stream ("rsvd/omega" per round, and
//     accuracy.SketchSeed's "sample" for the error metric), so no two
//     (stream, round) pairs can collide and the fitted model is
//     bit-identical across sequential, parallel, and fault-injected runs.
//   - Pooled mappers: the MapReduce jobs' mappers come from per-fit pools
//     (a mapper goes back from Cleanup, after the slab store has copied its
//     emits), so a fit makes only as many as run at once; each Spark
//     partition's sketch scratch is allocated on the first round and reused.
//   - Exact tracing: every charged phase flows through the cluster, so leaf
//     trace spans sum to the run Metrics bit for bit.
//   - Checkpoint/resume at sketch-round granularity: with a CheckpointSpec
//     armed, the best-of-rounds state (components, singular values, error)
//     is snapshotted after each round and an injected driver crash resumes
//     to a bit-identical final model.
package rsvd

import (
	"errors"
	"fmt"
	"math"

	"spca/internal/accuracy"
	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/driver"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// Options configures a randomized-sketch PCA run.
type Options struct {
	// Components is d, the number of principal components.
	Components int
	// Oversample adds extra random projections beyond d (Halko's p).
	// Default 10.
	Oversample int
	// PowerIterations is q, the number of QR re-orthonormalized power
	// iterations refining the range basis. Default 1 — one refinement is
	// what lets the sketch engines beat Mahout's q=0 accuracy plateau.
	PowerIterations int
	// MaxRounds bounds sketch re-draws; each round redraws Ω and the best
	// model (lowest sampled reconstruction error) is kept. Default 1: a
	// randomized sketch is a one-to-few-pass algorithm.
	MaxRounds int
	// TargetAccuracy stops re-drawing once this fraction of ideal accuracy
	// is reached (requires IdealError).
	TargetAccuracy float64
	// IdealError is the exact rank-d PCA error on the sampled rows.
	IdealError float64
	// Seed drives every random draw through matrix.DeriveSeed.
	Seed uint64

	// Options are the settings of the shared iterative driver: round-
	// granularity snapshots, resume, driver-crash injection (task-level
	// faults are armed on the engine / context by the caller), incarnation
	// accounting, Tracer, and the Interrupt polled at every round boundary.
	driver.Options
}

// DefaultOptions returns the paper-flavoured defaults for d components.
func DefaultOptions(d int) Options {
	return Options{
		Components:      d,
		Oversample:      10,
		PowerIterations: 1,
		MaxRounds:       1,
		Seed:            42,
	}
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 1
	}
	return o.MaxRounds
}

// Validate rejects options a sketch fit of n rows and dims columns cannot
// run.
func (o Options) Validate(n, dims int) error {
	if o.Components <= 0 {
		return errors.New("rsvd: Components must be positive")
	}
	if n == 0 {
		return errors.New("rsvd: empty input")
	}
	if o.Components > dims {
		return fmt.Errorf("rsvd: Components %d exceeds dimensionality %d", o.Components, dims)
	}
	if o.PowerIterations < 0 {
		return errors.New("rsvd: negative PowerIterations")
	}
	return nil
}

// sketchWidth is k = d + oversample, clamped to the problem shape.
func (o Options) sketchWidth(n, dims int) int {
	k := o.Components + o.Oversample
	if k > dims {
		k = dims
	}
	if k > n {
		k = n
	}
	return k
}

// IterationStat records accuracy after each sketch round.
type IterationStat struct {
	Iter       int
	Err        float64
	Accuracy   float64
	SimSeconds float64
}

// Result is the output of a randomized-sketch PCA run.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Singular holds the corresponding singular values of the centered data.
	Singular []float64
	// Mean is the column-mean vector computed by the fit's first pass.
	Mean []float64
	// Iterations counts sketch rounds (initial pass = 1).
	Iterations int
	History    []IterationStat
	Metrics    cluster.Metrics
	// Phases is the per-phase cost breakdown aggregated from the phase log.
	Phases []cluster.PhaseSummary
}

// RoundEngine is the per-platform part of a sketch fit: one full sketch
// round producing candidate components and singular values.
type RoundEngine interface {
	Round(round, k int) (*matrix.Dense, []float64, error)
}

// FitSketch runs the platform-independent half of a sketch fit named fit
// (the name its snapshots carry) on the shared iterative driver
// (internal/driver), which owns the loop, the interrupt polls, the
// checkpoints, and the driver-crash injection. cl is the fit's cluster and
// cursor its engine's fault cursor. The column means come from meanPass,
// or from the snapshot on resume, since the crashed incarnation already
// paid for the pass; newEngine then builds the engine around them, and
// each driver iteration runs one of its rounds until MaxRounds or
// TargetAccuracy.
func FitSketch(fit string, opt Options, rows []matrix.SparseVector, dims int, cl *cluster.Cluster, cursor driver.Cursor,
	meanPass func() ([]float64, error), newEngine func(mean []float64) RoundEngine) (*Result, error) {
	s := &sketch{
		opt: opt, n: len(rows), dims: dims,
		res:     &Result{},
		k:       opt.sketchWidth(len(rows), dims),
		sample:  accuracy.Draw(rows, dims, accuracy.SketchSeed(opt.Seed)),
		bestErr: math.Inf(1),
	}
	s.run = driver.New(fit, opt.Options, cl, cursor)
	if err := s.run.Resume(len(rows), dims, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	if snap := opt.Resume; snap != nil {
		s.restore(snap)
	} else {
		mean, err := meanPass()
		if err != nil {
			return nil, err
		}
		s.mean = mean
	}
	s.eng = newEngine(s.mean)
	if err := s.run.Loop(s, opt.maxRounds(), "round", "round"); err != nil {
		return nil, err
	}
	res := s.res
	res.Components = s.bestW
	res.Singular = s.bestSing
	res.Mean = s.mean
	res.Iterations = len(res.History)
	res.Metrics, res.Phases = s.run.Finish()
	return res, nil
}

// sketch is the driver's Step for a sketch fit. It keeps the best-of-rounds
// model under the sampled error metric and the round history.
type sketch struct {
	opt     Options
	run     *driver.Run
	eng     RoundEngine
	res     *Result
	n, dims int
	k       int
	mean    []float64
	sample  *accuracy.Sample

	bestErr  float64
	bestW    *matrix.Dense
	bestSing []float64
}

// restore loads a validated snapshot: best-of-rounds state, mean, and
// history. The shared driver's Resume prelude has already restored and
// charged the clock and rewound the engine's fault cursor.
func (s *sketch) restore(snap *checkpoint.Snapshot) {
	s.mean = snap.Mean
	s.bestErr = snap.SS
	s.bestW = snap.C
	s.bestSing = snap.Singular
	for _, h := range snap.History {
		s.res.History = append(s.res.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		})
	}
}

// Done stops re-drawing once the best round reaches TargetAccuracy.
func (s *sketch) Done() bool {
	h := s.res.History
	return s.opt.TargetAccuracy > 0 && len(h) > 0 && h[len(h)-1].Accuracy >= s.opt.TargetAccuracy
}

func (s *sketch) Step(round int) error {
	w, sing, err := s.eng.Round(round, s.k)
	if err != nil {
		return err
	}
	// Best-of-rounds on the sampled reconstruction error (§2.3's
	// accuracy/compute trade).
	e := s.sample.Err(s.mean, w, w)
	if e < s.bestErr {
		s.bestErr = e
		s.bestW = w
		s.bestSing = sing
	}
	stat := IterationStat{
		Iter: round, Err: s.bestErr, Accuracy: accuracy.Of(s.opt.IdealError, s.bestErr), SimSeconds: s.run.SimSeconds(),
	}
	s.res.History = append(s.res.History, stat)
	s.opt.Tracer.IterationDone(trace.Iteration{
		Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SimSeconds: stat.SimSeconds,
	})
	return nil
}

// SpanEnd closes a round span without attributes.
func (s *sketch) SpanEnd(error) []trace.Attr { return nil }

// Snapshot assembles the best-of-rounds boundary state.
func (s *sketch) Snapshot(round int) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Iter: round,
		N:    s.n, Dims: s.dims, D: s.opt.Components, Seed: s.opt.Seed,
		SS:       s.bestErr,
		Mean:     s.mean,
		C:        s.bestW,
		Singular: s.bestSing,
	}
	snap.History = make([]checkpoint.HistoryEntry, len(s.res.History))
	for i, h := range s.res.History {
		snap.History[i] = checkpoint.HistoryEntry{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		}
	}
	return snap
}

// QRPhase orthonormalizes a materialized N x k projection: the real QR runs
// on the driver's copy and the distributed cost of a blockwise QR is charged
// in one phase named name: O(N·k²) compute plus a full write and read of Q,
// the N x k intermediate the next job reads back.
func QRPhase(cl *cluster.Cluster, name string, p *matrix.Dense) *matrix.Dense {
	q, _ := matrix.QR(p)
	nk := int64(p.R) * int64(p.C) * 8
	cl.RunPhase(cluster.PhaseStats{
		Name:              name,
		ComputeOps:        int64(p.R) * int64(p.C) * int64(p.C) * 2,
		DiskBytes:         2 * nk,
		MaterializedBytes: nk,
		Tasks:             int64(cl.TotalCores()),
	})
	return q
}

// IndexedRow is an input row with its index, the record of the MapReduce
// sketch jobs: the projection is keyed by row, and the B job reads Q's row.
type IndexedRow struct {
	Idx int
	Row matrix.SparseVector
}

// IndexRows pairs every row with its index.
func IndexRows(rows []matrix.SparseVector) []IndexedRow {
	indexed := make([]IndexedRow, len(rows))
	for i, r := range rows {
		indexed[i] = IndexedRow{Idx: i, Row: r}
	}
	return indexed
}
