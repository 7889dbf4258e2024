// Package spca is a Go reproduction of "sPCA: Scalable Principal Component
// Analysis for Big Data on Distributed Platforms" (SIGMOD 2015). It provides
// the paper's scalable probabilistic PCA (sPCA) on two simulated distributed
// platforms — a Hadoop-like MapReduce engine and a Spark-like RDD engine —
// together with the baselines the paper analyzes (Mahout-PCA, i.e.
// stochastic SVD on MapReduce; MLlib-PCA, i.e. covariance +
// eigendecomposition on Spark; and the §2.2 SVD-Bidiag pipeline), synthetic
// generators for the paper's four dataset families, and a benchmark harness
// regenerating every table and figure of the evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	y := spca.GenerateDataset(spca.DatasetSpec{
//		Kind: spca.Tweets, Rows: 10000, Cols: 1000, Seed: 1,
//	})
//	res, err := spca.Fit(y, spca.Config{Algorithm: spca.SPCASpark, Components: 50})
//	// res.Components: D x 50 principal directions
//	// res.Metrics:    simulated running time, shuffle bytes, ...
package spca

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"spca/internal/accuracy"
	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/covpca"
	"spca/internal/dataset"
	"spca/internal/driver"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/ppca"
	"spca/internal/rdd"
	"spca/internal/rsvd"
	"spca/internal/ssvd"
	"spca/internal/svdbidiag"
	"spca/internal/trace"
)

// Typed errors returned by Fit and FitStreamFileConfig input validation,
// matchable with errors.Is.
var (
	// ErrEmptyInput rejects a nil or zero-sized input matrix.
	ErrEmptyInput = errors.New("spca: empty input matrix")
	// ErrNonFiniteInput rejects NaN/Inf values in the input. This is distinct
	// from FitMissingConfig, which interprets NaN in a *dense* matrix as a
	// missing-entry marker; the sparse fit paths require finite data.
	ErrNonFiniteInput = errors.New("spca: input contains non-finite values")
	// ErrBadConfig rejects out-of-range Config fields.
	ErrBadConfig = errors.New("spca: invalid configuration")
	// ErrNumericalBreakdown surfaces a numerical-guard failure inside the EM
	// loop: non-finite model state or an unrecoverably singular solve.
	ErrNumericalBreakdown = ppca.ErrNumericalBreakdown
	// ErrDriverCrash is the sentinel under every injected driver crash. Fit
	// only returns it when checkpointing is disabled — with a Checkpoint
	// configured the driver auto-resumes instead.
	ErrDriverCrash = cluster.ErrDriverCrash
	// ErrCorruptPayload is the sentinel under an unrecoverable data-plane
	// corruption: a payload whose checksum failed on every re-fetch the
	// retry budget allowed, or a real producer/consumer digest mismatch.
	// Recoverable corruption (the normal case under FaultPlan.CorruptionRate)
	// never surfaces as an error — it is retried and charged to
	// Metrics.CorruptPayloads/ReverifySeconds.
	ErrCorruptPayload = cluster.ErrCorruptPayload
	// ErrCanceled is the sentinel under a run stopped by Config.Context
	// cancellation. It wraps context.Canceled, so errors.Is matches either.
	ErrCanceled = cluster.ErrCanceled
	// ErrDeadlineExceeded is the sentinel under a run stopped by a
	// Config.Context deadline. It wraps context.DeadlineExceeded.
	ErrDeadlineExceeded = cluster.ErrDeadlineExceeded
	// ErrStalled is the sentinel under a run aborted by the stall watchdog
	// (Config.StallTimeout): no iteration or phase progress within budget.
	ErrStalled = cluster.ErrStalled
	// ErrTaskFailed is the sentinel under a distributed job whose task
	// exhausted its attempt budget (only reachable with Faults armed).
	ErrTaskFailed = mapred.ErrTaskFailed
	// ErrBadSnapshot is the sentinel under every checkpoint-integrity failure:
	// truncated, bit-flipped, or version-mismatched snapshot files.
	ErrBadSnapshot = checkpoint.ErrBadSnapshot
	// ErrDriverOOM is the sentinel under a simulated driver-memory exhaustion
	// (the MLlib-PCA wide-matrix failure mode).
	ErrDriverOOM = cluster.ErrDriverOOM
)

// AbortError reports a cooperative abort: a fit stopped by Config.Context
// cancellation, a context deadline, or the stall watchdog. Iter is the last
// completed iteration/round, Checkpointed says whether a snapshot covering it
// is on durable storage (resume by re-running Fit with Config.Resume set),
// and the error unwraps to ErrCanceled / ErrDeadlineExceeded / ErrStalled.
type AbortError = cluster.AbortError

// ErrMalformedMatrix re-exports the typed parse error of the matrix readers
// (bad headers, out-of-range indices, non-finite values in files).
var ErrMalformedMatrix = matrix.ErrMalformedMatrix

// Matrix and vector types used throughout the public API.
type (
	// Dense is a row-major dense matrix.
	Dense = matrix.Dense
	// Sparse is a compressed-sparse-row matrix.
	Sparse = matrix.Sparse
	// SparseVector is one sparse row.
	SparseVector = matrix.SparseVector
)

// Algorithm selects which PCA implementation Fit runs.
type Algorithm string

// The four algorithms compared in the paper's evaluation, plus the
// single-machine PPCA reference.
const (
	// SPCAMapReduce is sPCA on the Hadoop-like engine (Algorithm 4).
	SPCAMapReduce Algorithm = "spca-mapreduce"
	// SPCASpark is sPCA on the Spark-like engine (Algorithm 5).
	SPCASpark Algorithm = "spca-spark"
	// MahoutPCA is the stochastic-SVD baseline on MapReduce (§2.3).
	MahoutPCA Algorithm = "mahout-pca"
	// MLlibPCA is the covariance-eigendecomposition baseline on Spark (§2.1).
	MLlibPCA Algorithm = "mllib-pca"
	// SVDBidiag is the dense QR + bidiagonal-SVD pipeline on MapReduce
	// (§2.2, the method RScaLAPACK exposes), with a distributed TSQR step.
	SVDBidiag Algorithm = "svd-bidiag"
	// LocalPPCA is the single-machine PPCA reference (Algorithm 1).
	LocalPPCA Algorithm = "ppca-local"
	// RSVDMapReduce is distributed randomized SVD on the Hadoop-like engine:
	// a seeded Gaussian range finder with QR re-orthonormalized power
	// iterations and a small driver-side SVD. The modern sketch competitor
	// to the iterative EM algorithms.
	RSVDMapReduce Algorithm = "rsvd-mapreduce"
	// RSVDSpark is the communication-optimal distributed sketch (Balcan et
	// al.) on the Spark-like engine: each partition computes a complete
	// local sketch and ships only a k x D block; the driver merges the
	// stacked blocks with one small SVD.
	RSVDSpark Algorithm = "rsvd-spark"
)

// Dataset kinds, mirroring the paper's four evaluation datasets.
const (
	Tweets   = dataset.KindTweets
	BioText  = dataset.KindBioText
	Diabetes = dataset.KindDiabetes
	Images   = dataset.KindImages
)

// DatasetSpec describes a synthetic dataset to generate.
type DatasetSpec = dataset.Spec

// DatasetKind names one of the paper's dataset families.
type DatasetKind = dataset.Kind

// GenerateDataset builds a synthetic dataset with the statistical skeleton
// of the requested paper dataset (see internal/dataset). It panics on an
// invalid spec; use NewDataset to receive the error instead.
func GenerateDataset(spec DatasetSpec) *Sparse { return dataset.MustGenerate(spec) }

// NewDataset is GenerateDataset returning spec errors instead of panicking.
func NewDataset(spec DatasetSpec) (*Sparse, error) { return dataset.Generate(spec) }

// ClusterConfig describes the simulated cluster a fit runs on.
type ClusterConfig struct {
	// Nodes and CoresPerNode shape the worker pool (default 8 x 8, the
	// paper's testbed).
	Nodes        int
	CoresPerNode int
	// NodeMemoryGB and DriverMemoryGB set the simulated memory limits
	// (default 32 GB each). DriverMemoryGB is what makes MLlib-PCA fail on
	// wide matrices.
	NodeMemoryGB   float64
	DriverMemoryGB float64
	// Cost-model overrides (zero keeps the default rates). The experiment
	// harness lowers the bandwidths and raises RecordCostSec to restore the
	// paper's cost balance on scaled-down datasets; see DESIGN.md.
	NetworkMBps   float64 // aggregate shuffle bandwidth, MB/s
	DiskMBps      float64 // aggregate disk bandwidth, MB/s
	RecordCostSec float64 // seconds per scanned record, shared across cores
}

// Metrics re-exports the simulated-cluster accounting.
type Metrics = cluster.Metrics

// FaultPlan re-exports the deterministic fault-injection plan. Armed via
// Config.Faults it subjects a fit to task-attempt failures, node losses and
// stragglers; the engines recover (retries on MapReduce, lineage
// recomputation on Spark), the recovery cost lands in the Metrics fault
// fields, and the fitted model stays bit-identical to a fault-free run.
type FaultPlan = cluster.FaultPlan

// CheckpointSpec configures periodic durable driver snapshots; see
// Config.Checkpoint.
type CheckpointSpec = driver.CheckpointSpec

// DriverCrashError reports an injected driver crash: the EM iteration the
// driver completed before dying, the incarnation that crashed, and the
// simulated clock at the moment of death. Unwraps to ErrDriverCrash.
type DriverCrashError = cluster.DriverCrashError

// Tracing and observability types, re-exported from the deterministic trace
// subsystem (see the Observability section of DESIGN.md). All timestamps are
// simulated-cluster seconds; with a fixed Config the span stream is
// bit-reproducible across runs and platforms.
type (
	// Observer receives spans, events, and iteration stats as a fit runs.
	// Implementations must be cheap: callbacks fire synchronously on the
	// driver's goroutine in deterministic order.
	Observer = trace.Observer
	// Trace is the in-memory span tree collected by Config.CollectTrace.
	Trace = trace.Trace
	// Span is one traced operation (fit, iteration, job, action, phase).
	Span = trace.Span
	// TraceEvent is an instantaneous marker (recovery, driver-crash, ...).
	TraceEvent = trace.Event
	// TraceAttr is one typed key/value attribute on a span or event.
	TraceAttr = trace.Attr
	// TraceIteration is the per-EM-iteration observer payload.
	TraceIteration = trace.Iteration
	// SpanKind classifies a span's layer.
	SpanKind = trace.Kind
	// JSONLTraceWriter streams completed spans as JSON lines.
	JSONLTraceWriter = trace.JSONLWriter
	// PhaseSummary is one row of Result.Summary: the aggregate cost of all
	// cluster phases sharing a name.
	PhaseSummary = cluster.PhaseSummary
)

// Span kinds, from outermost to innermost layer.
const (
	KindFit       = trace.KindFit
	KindIteration = trace.KindIteration
	KindJob       = trace.KindJob
	KindAction    = trace.KindAction
	KindPhase     = trace.KindPhase
	KindDriver    = trace.KindDriver
)

// NewJSONLTraceWriter returns an Observer that writes one JSON line per
// completed span, event, and iteration to w. Call Flush before reading the
// output. The format round-trips exactly: ReadJSONLTrace reconstructs a
// Trace with the same Fingerprint.
func NewJSONLTraceWriter(w io.Writer) *JSONLTraceWriter { return trace.NewJSONLWriter(w) }

// ReadJSONLTrace parses a stream written by NewJSONLTraceWriter.
func ReadJSONLTrace(r io.Reader) (*Trace, error) { return trace.ReadJSONL(r) }

// WriteChromeTrace exports t in Chrome trace_event format, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Span timestamps are
// simulated seconds rendered as microseconds.
func WriteChromeTrace(w io.Writer, t *Trace) error { return trace.WriteChrome(w, t) }

// IterationStat mirrors ppca.IterationStat for the unified result.
type IterationStat struct {
	Iter       int
	Err        float64
	Accuracy   float64
	SimSeconds float64
	// Ridge is the total ridge regularization added to this iteration's
	// M-step solve (zero in a healthy run); RidgeRetries counts singular-solve
	// retries; Rollback marks an iteration the divergence guard rolled back.
	Ridge        float64
	RidgeRetries int
	Rollback     bool
}

// Config configures Fit. Zero values select paper defaults.
type Config struct {
	// Algorithm defaults to SPCASpark.
	Algorithm Algorithm
	// Components is d (default 50, the paper's setting, clamped to D).
	Components int
	// MaxIter caps refinement rounds (default 10, per §5.1).
	MaxIter int
	// TargetAccuracy stops at this fraction of ideal accuracy (e.g. 0.95).
	// When set, Fit computes the ideal error with an exact rank-d PCA first.
	TargetAccuracy float64
	// Seed drives all randomness (default 42).
	Seed uint64
	// Cluster overrides the simulated cluster (default: paper testbed).
	Cluster ClusterConfig
	// Faults arms deterministic fault injection for the distributed
	// algorithms (nil, the default, runs fault-free). See FaultPlan.
	Faults *FaultPlan
	// MaxAttempts bounds task attempts per MapReduce phase: the retry budget
	// injected task failures and corrupt payloads are recovered within
	// before the job fails. Zero keeps the engine default (4, like Hadoop);
	// negative values are rejected. A FaultPlan's own MaxAttempts takes
	// precedence when set.
	MaxAttempts int
	// BadRecordBudget allows up to this many malformed input records to be
	// skipped (dropped) per pass by the streaming fit's file reader instead
	// of failing the run, with the count reported on Result.SkippedRecords.
	// Zero, the default, keeps every reader strict. Only FitStreamFileConfig
	// consumes it; in-memory fits validate their input up front.
	BadRecordBudget int
	// Tol is the convergence tolerance for the PPCA-family algorithms: the
	// fit stops early once the relative reconstruction-error improvement
	// drops below it. Zero keeps the paper default (1e-3); a negative value
	// disables early stopping entirely.
	Tol float64
	// DivergeWindow arms the EM divergence guard: after this many consecutive
	// iterations of rising error the driver rolls back to the best model seen
	// and applies an escalating ridge to later solves. Zero disables it.
	DivergeWindow int
	// Observer, when non-nil, receives every span, event, and EM-iteration
	// stat the fit produces, synchronously and in deterministic order on the
	// simulated clock. The nil default disables tracing with zero overhead.
	Observer Observer
	// CollectTrace attaches an in-memory sink and returns the full span tree
	// on Result.Trace. It composes with Observer (both see the same stream).
	CollectTrace bool
	// Checkpoint enables periodic durable snapshots of the driver state of
	// the iterative algorithms: after EM iterations for SPCAMapReduce,
	// SPCASpark and LocalPPCA (and FitStreamFileConfig), after sketch rounds
	// for RSVDMapReduce, RSVDSpark and MahoutPCA. MLlibPCA and SVDBidiag are
	// single-pass and ignore it. With an Interval and Dir set, the fit
	// survives injected driver crashes (FaultPlan.DriverCrashIters): Fit
	// auto-resumes from the latest snapshot and the final model is
	// bit-identical to an uninterrupted run, with the recovery cost reported
	// in Metrics (RecoverySeconds, DriverRestarts). A snapshot names the
	// algorithm that wrote it, and no other algorithm resumes from it. The
	// zero value disables checkpointing at zero cost.
	Checkpoint CheckpointSpec
	// Context, when non-nil, makes the fit cooperatively cancelable: cancel
	// it (or let its deadline expire) and the run unwinds at the next
	// iteration/phase boundary with an *AbortError whose cause matches
	// ErrCanceled or ErrDeadlineExceeded (and the stdlib context sentinels).
	// With Checkpoint configured, the driver writes a final snapshot at the
	// abort boundary so a later Fit with Resume set continues bit-identically.
	// Polling a live context is allocation-free and charges nothing to the
	// simulated clock. Nil (the default) runs uninterruptible.
	Context context.Context
	// StallTimeout arms a real-time stall watchdog: if no iteration or phase
	// progress is observed for this long, the run aborts with an *AbortError
	// wrapping ErrStalled whose Diagnostic carries a phase-summary dump.
	// Zero disables the watchdog. The budget is wall-clock time (a stalled
	// process), not simulated seconds.
	StallTimeout time.Duration
	// Resume makes Fit start from the latest valid snapshot in
	// Checkpoint.Dir instead of from scratch — the continuation step after
	// an aborted (canceled / deadline-exceeded / stalled / killed) run.
	// Requires Checkpoint to be configured; an empty or checkpoint-less
	// directory falls back to a fresh run. The resumed fit's model, history,
	// and final simulated clock are bit-identical to an uninterrupted run.
	Resume bool

	// Optimization switches for sPCA ablations. DisableX turns an
	// optimization OFF (the zero value keeps full sPCA behaviour).
	DisableMeanPropagation      bool
	DisableMinimizeIntermediate bool
	DisableEfficientFrobenius   bool
	DisableStatefulCombiner     bool // §4.1 in-mapper combining (MapReduce)
	DisableAssociativeSS3       bool // §4.1 Eq. 3 multiplication order
	// SmartGuess enables sPCA-SG initialization (§5.2).
	SmartGuess bool

	// Oversample adds extra random projections beyond Components for the
	// sketch algorithms (RSVDMapReduce, RSVDSpark, MahoutPCA). Zero keeps
	// each engine's default.
	Oversample int
	// PowerIterations sets q for the sketch algorithms. Zero keeps each
	// engine's default; a negative value selects zero power iterations
	// (Mahout's stock configuration).
	PowerIterations int
}

// Result is the unified output of Fit. It embeds the fitted Model — the
// projection surface shared with the model files and the serving registry —
// and adds the run-scoped outputs: error history, cluster metrics, and the
// collected trace. Transform, Reconstruct, ExplainedVariance, and Save are
// the embedded Model's methods.
type Result struct {
	Model
	// Err is the final sampled relative 1-norm reconstruction error.
	Err float64
	// Iterations counts refinement rounds.
	Iterations int
	// History traces error/accuracy per round (empty for MLlibPCA, which is
	// a fixed sequence of matrix operations).
	History []IterationStat
	// Metrics is the simulated-cluster accounting of the run.
	Metrics Metrics
	// SkippedRecords counts malformed input records dropped under
	// Config.BadRecordBudget by the streaming fit (per pass — the file does
	// not change between passes, so every pass skips the same records).
	// Always zero without a budget.
	SkippedRecords int64
	// Trace is the collected span tree when Config.CollectTrace was set
	// (nil otherwise). Spans appear in completion order — children before
	// parents — with timestamps on the simulated clock.
	Trace *Trace

	// phases is the final incarnation's phase-log summary, the Summary
	// fallback when no trace was collected.
	phases []cluster.PhaseSummary
}

// Summary returns the per-phase cost breakdown of the run: for every distinct
// phase name, the aggregate simulated seconds, shuffle/disk bytes, compute
// ops, and attempt counts. When a trace was collected the breakdown is
// derived from its phase spans and covers every driver incarnation; otherwise
// it comes from the final incarnation's phase log.
func (r *Result) Summary() []PhaseSummary {
	if r.Trace != nil {
		pm := r.Trace.Breakdown()
		out := make([]PhaseSummary, len(pm))
		for i, p := range pm {
			out[i] = PhaseSummary{
				Name:            p.Name,
				Count:           p.Count,
				Seconds:         p.Seconds,
				RecoverySeconds: p.RecoverySeconds,
				ComputeOps:      p.ComputeOps + p.RecomputedOps,
				ShuffleBytes:    p.ShuffleBytes,
				DiskBytes:       p.DiskBytes + p.RecoveryDiskBytes,
				Tasks:           p.Tasks,
				Records:         p.Records,
				FailedAttempts:  p.FailedAttempts,
			}
		}
		return out
	}
	return r.phases
}

func (c ClusterConfig) build(alg Algorithm) cluster.Config {
	cfg := cluster.DefaultConfig()
	if c.Nodes > 0 {
		cfg.Nodes = c.Nodes
	}
	if c.CoresPerNode > 0 {
		cfg.CoresPerNode = c.CoresPerNode
	}
	if c.NodeMemoryGB > 0 {
		cfg.NodeMemory = int64(c.NodeMemoryGB * float64(1<<30))
	}
	if c.DriverMemoryGB > 0 {
		cfg.DriverMemory = int64(c.DriverMemoryGB * float64(1<<30))
	}
	if c.NetworkMBps > 0 {
		cfg.NetworkBps = c.NetworkMBps * 1e6
	}
	if c.DiskMBps > 0 {
		cfg.DiskBps = c.DiskMBps * 1e6
	}
	if c.RecordCostSec > 0 {
		cfg.RecordCost = c.RecordCostSec
	}
	// Spark-style engines schedule tasks far more cheaply than Hadoop's
	// JVM-per-task model.
	if alg == SPCASpark || alg == MLlibPCA || alg == RSVDSpark {
		cfg = cfg.WithTaskOverhead(0.05)
	}
	return cfg
}

func (c Config) normalize(dims int) Config {
	if c.Algorithm == "" {
		c.Algorithm = SPCASpark
	}
	if c.Components <= 0 {
		c.Components = 50
	}
	if c.Components > dims {
		c.Components = dims
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// validateInput performs the typed input checks shared by the fit entry
// points: a usable shape and finite data.
func validateInput(y *Sparse) error {
	if y == nil || y.R == 0 || y.C == 0 {
		return ErrEmptyInput
	}
	for _, v := range y.Vals {
		if v != v || math.IsInf(v, 0) {
			return fmt.Errorf("%w (found %v; FitMissingConfig accepts NaN-marked dense matrices)", ErrNonFiniteInput, v)
		}
	}
	return nil
}

// check validates the user-facing Config ranges before normalize fills in
// defaults.
func (c Config) check() error {
	if c.TargetAccuracy < 0 || c.TargetAccuracy > 1 {
		return fmt.Errorf("%w: TargetAccuracy %v outside (0, 1]", ErrBadConfig, c.TargetAccuracy)
	}
	if c.Checkpoint.Interval < 0 {
		return fmt.Errorf("%w: negative Checkpoint.Interval %d", ErrBadConfig, c.Checkpoint.Interval)
	}
	if c.Checkpoint.Interval > 0 && c.Checkpoint.Dir == "" {
		return fmt.Errorf("%w: Checkpoint.Interval set without Checkpoint.Dir", ErrBadConfig)
	}
	if c.DivergeWindow < 0 {
		return fmt.Errorf("%w: negative DivergeWindow %d", ErrBadConfig, c.DivergeWindow)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("%w: MaxAttempts %d below 1 (0 selects the engine default)", ErrBadConfig, c.MaxAttempts)
	}
	if c.BadRecordBudget < 0 {
		return fmt.Errorf("%w: negative BadRecordBudget %d", ErrBadConfig, c.BadRecordBudget)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("%w: negative StallTimeout %v", ErrBadConfig, c.StallTimeout)
	}
	if c.Resume && !c.Checkpoint.Enabled() {
		return fmt.Errorf("%w: Resume requires a configured Checkpoint", ErrBadConfig)
	}
	return nil
}

// Fit computes the principal components of y with the configured algorithm
// on a fresh simulated cluster, returning the components together with the
// run's accuracy history and cluster metrics.
func Fit(y *Sparse, cfg Config) (*Result, error) {
	if err := validateInput(y); err != nil {
		return nil, err
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize(y.C)
	rows := dataset.Rows(y)
	tr, col := cfg.tracer()
	intr := cluster.NewInterrupt(cfg.Context, cfg.StallTimeout)

	switch cfg.Algorithm {
	case LocalPPCA, SPCAMapReduce, SPCASpark:
		opt := cfg.ppcaOptions(y)
		opt.Tracer = tr
		opt.Interrupt = intr
		res, err := driver.Restart(opt.Options, cfg.Resume, func(d driver.Options) (*ppca.Result, error) {
			opt.Options = d
			if cfg.Algorithm == LocalPPCA {
				return ppca.FitLocal(y, opt)
			}
			cl, err := cfg.newCluster(intr)
			if err != nil {
				return nil, err
			}
			if cfg.Algorithm == SPCAMapReduce {
				return ppca.FitMapReduce(cfg.mapredEngine(cl), rows, y.C, opt)
			}
			return ppca.FitSpark(cfg.rddContext(cl), rows, y.C, opt)
		})
		if err != nil {
			return nil, err
		}
		return attachTrace(fromPPCA(cfg.Algorithm, cfg.Seed, res), col), nil

	case RSVDMapReduce, RSVDSpark, MahoutPCA:
		opt := cfg.rsvdOptions(y)
		opt.Tracer = tr
		opt.Interrupt = intr
		res, err := driver.Restart(opt.Options, cfg.Resume, func(d driver.Options) (*rsvd.Result, error) {
			opt.Options = d
			cl, err := cfg.newCluster(intr)
			if err != nil {
				return nil, err
			}
			switch cfg.Algorithm {
			case RSVDMapReduce:
				return rsvd.FitMapReduce(cfg.mapredEngine(cl), rows, y.C, opt)
			case MahoutPCA:
				return ssvd.FitMapReduce(cfg.mapredEngine(cl), rows, y.C, opt)
			}
			return rsvd.FitSpark(cfg.sketchRDDContext(cl), rows, y.C, opt)
		})
		if err != nil {
			return nil, err
		}
		return attachTrace(fromRSVD(cfg.Algorithm, cfg.Seed, res), col), nil

	case MLlibPCA:
		cl, err := cfg.newCluster(intr)
		if err != nil {
			return nil, err
		}
		opt := covpca.DefaultOptions(cfg.Components)
		opt.Seed = cfg.Seed
		opt.Tracer = tr
		res, err := covpca.FitSpark(cfg.rddContext(cl), rows, y.C, opt)
		if err != nil {
			return nil, driver.NormalizeInterrupt(err)
		}
		return attachTrace(fromBaseline(cfg, y, res.Components, res.Err, res.Metrics, res.Phases), col), nil

	case SVDBidiag:
		cl, err := cfg.newCluster(intr)
		if err != nil {
			return nil, err
		}
		opt := svdbidiag.DefaultOptions(cfg.Components)
		opt.Seed = cfg.Seed
		opt.Tracer = tr
		res, err := svdbidiag.FitMapReduce(cfg.mapredEngine(cl), rows, y.C, opt)
		if err != nil {
			return nil, driver.NormalizeInterrupt(err)
		}
		return attachTrace(fromBaseline(cfg, y, res.Components, res.Err, res.Metrics, res.Phases), col), nil

	default:
		return nil, fmt.Errorf("spca: unknown algorithm %q", cfg.Algorithm)
	}
}

// tracer builds the run's Tracer from the observer-related Config fields. It
// returns (nil, nil) — tracing fully disabled, zero overhead on every call
// site — unless an Observer is set or CollectTrace is requested.
func (c Config) tracer() (*trace.Tracer, *trace.Collector) {
	if c.Observer == nil && !c.CollectTrace {
		return nil, nil
	}
	tr := trace.New()
	if c.Observer != nil {
		tr.AddObserver(c.Observer)
	}
	var col *trace.Collector
	if c.CollectTrace {
		col = trace.NewCollector()
		tr.AddObserver(col)
	}
	return tr, col
}

// attachTrace moves the collected span tree (if any) onto the result.
func attachTrace(r *Result, col *trace.Collector) *Result {
	if col != nil {
		r.Trace = col.Trace()
	}
	return r
}

// newCluster builds the simulated cluster for one fit attempt and attaches
// the run's interrupt handle, so every engine layered on the cluster (mapred
// jobs, rdd actions) polls the same context and stall watchdog the driver's
// EM and sketch loops do.
func (c Config) newCluster(intr *cluster.Interrupt) (*cluster.Cluster, error) {
	cl, err := cluster.New(c.Cluster.build(c.Algorithm))
	if err != nil {
		return nil, err
	}
	cl.SetInterrupt(intr)
	return cl, nil
}

// mapredEngine builds the Hadoop-like engine for a fit, arming fault
// injection when the config carries a plan.
func (c Config) mapredEngine(cl *cluster.Cluster) *mapred.Engine {
	eng := mapred.NewEngine(cl)
	eng.Faults = c.Faults
	if c.MaxAttempts > 0 {
		eng.MaxAttempts = c.MaxAttempts
	}
	return eng
}

// rddContext builds the Spark-like context for a fit, arming fault injection
// when the config carries a plan.
func (c Config) rddContext(cl *cluster.Cluster) *rdd.Context {
	ctx := rdd.NewContext(cl)
	ctx.SetFaultPlan(c.Faults)
	return ctx
}

// sketchRDDContext gives the communication-optimal sketch engine one
// partition per node — the granularity Balcan et al.'s merge protocol
// assumes, and what keeps its shuffle volume at s·k·D instead of scaling
// with the task count.
func (c Config) sketchRDDContext(cl *cluster.Cluster) *rdd.Context {
	ctx := rdd.NewContext(cl).WithPartitions(cl.Config().Nodes)
	ctx.SetFaultPlan(c.Faults)
	return ctx
}

// rsvdOptions maps the user-facing Config onto the sketch-engine options,
// starting from Mahout's defaults for MahoutPCA.
func (c Config) rsvdOptions(y *Sparse) rsvd.Options {
	opt := rsvd.DefaultOptions(c.Components)
	if c.Algorithm == MahoutPCA {
		opt = ssvd.DefaultOptions(c.Components)
	}
	opt.Seed = c.Seed
	opt.MaxRounds = c.MaxIter
	if c.Oversample > 0 {
		opt.Oversample = c.Oversample
	}
	if c.PowerIterations != 0 {
		opt.PowerIterations = max(c.PowerIterations, 0)
	}
	if c.TargetAccuracy > 0 {
		opt.TargetAccuracy = c.TargetAccuracy
		opt.IdealError = accuracy.Ideal(y, c.Components, c.Seed)
	}
	opt.Checkpoint = c.Checkpoint
	opt.Faults = c.Faults
	return opt
}

func fromRSVD(alg Algorithm, seed uint64, res *rsvd.Result) *Result {
	out := &Result{
		Model: Model{
			Algorithm:      alg,
			Components:     res.Components,
			Mean:           res.Mean,
			SingularValues: res.Singular,
			Seed:           seed,
			orthonormal:    true,
		},
		Iterations: res.Iterations,
		Metrics:    res.Metrics,
		phases:     res.Phases,
	}
	for _, h := range res.History {
		out.History = append(out.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		})
	}
	if len(out.History) > 0 {
		out.Err = out.History[len(out.History)-1].Err
	}
	return out
}

// fromBaseline builds the Result of a single-pass baseline, MLlib-PCA or
// SVD-Bidiag, from the fields their results share: an orthonormal model
// centered on y's column means, and one history entry.
func fromBaseline(cfg Config, y *Sparse, c *Dense, errv float64, m Metrics, phases []cluster.PhaseSummary) *Result {
	return &Result{
		Model: Model{
			Algorithm:   cfg.Algorithm,
			Components:  c,
			Mean:        y.ColMeans(),
			Seed:        cfg.Seed,
			orthonormal: true,
		},
		Err:        errv,
		Iterations: 1,
		History:    []IterationStat{{Iter: 1, Err: errv, SimSeconds: m.SimSeconds}},
		Metrics:    m,
		phases:     phases,
	}
}

func (c Config) ppcaBaseOptions() ppca.Options {
	opt := ppca.DefaultOptions(c.Components)
	opt.MaxIter = c.MaxIter
	opt.Seed = c.Seed
	opt.MeanPropagation = !c.DisableMeanPropagation
	opt.MinimizeIntermediate = !c.DisableMinimizeIntermediate
	opt.EfficientFrobenius = !c.DisableEfficientFrobenius
	opt.StatefulCombiner = !c.DisableStatefulCombiner
	opt.AssociativeSS3 = !c.DisableAssociativeSS3
	opt.SmartGuess = c.SmartGuess
	switch {
	case c.Tol > 0:
		opt.Tol = c.Tol
	case c.Tol < 0:
		opt.Tol = 0
	}
	opt.DivergeWindow = c.DivergeWindow
	opt.Checkpoint = c.Checkpoint
	opt.Faults = c.Faults
	return opt
}

func (c Config) ppcaOptions(y *Sparse) ppca.Options {
	opt := c.ppcaBaseOptions()
	if c.TargetAccuracy > 0 {
		opt.TargetAccuracy = c.TargetAccuracy
		opt.IdealError = accuracy.Ideal(y, c.Components, c.Seed)
	}
	return opt
}

func fromPPCA(alg Algorithm, seed uint64, res *ppca.Result) *Result {
	out := &Result{
		Model: Model{
			Algorithm:     alg,
			Components:    res.Components,
			Mean:          res.Mean,
			NoiseVariance: res.SS,
			Seed:          seed,
		},
		Iterations: res.Iterations,
		Metrics:    res.Metrics,
		phases:     res.Phases,
	}
	for _, h := range res.History {
		out.History = append(out.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
			Ridge: h.Ridge, RidgeRetries: h.RidgeRetries, Rollback: h.Rollback,
		})
	}
	if len(out.History) > 0 {
		out.Err = out.History[len(out.History)-1].Err
	}
	return out
}

// MissingResult is the output of FitMissingConfig.
type MissingResult = ppca.MissingResult

// validateDenseInput performs the typed input checks for the dense
// missing-data path: a usable shape and no infinities. NaN is allowed — it is
// the missing-entry marker.
func validateDenseInput(y *Dense) error {
	if y == nil || y.R == 0 || y.C == 0 {
		return ErrEmptyInput
	}
	for i := 0; i < y.R; i++ {
		for _, v := range y.Row(i) {
			if math.IsInf(v, 0) {
				return fmt.Errorf("%w (found %v; NaN marks a missing entry, Inf is rejected)", ErrNonFiniteInput, v)
			}
		}
	}
	return nil
}

// FitMissingConfig runs PPCA EM on a dense matrix whose missing entries are
// marked with NaN — the §2.4 property that PPCA "can be obtained even when
// some data values are missing". It accepts the same Config as Fit and
// applies the same validation and defaulting; algorithm- and cluster-related
// fields are ignored (the missing-data fit is single-machine). See the
// examples/missingdata program.
func FitMissingConfig(y *Dense, cfg Config) (*MissingResult, error) {
	if err := validateDenseInput(y); err != nil {
		return nil, err
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize(y.C)
	return ppca.FitMissing(y, cfg.ppcaBaseOptions())
}

// FitStreamFileConfig fits PPCA over a disk-resident spmx matrix without
// loading it into memory: every EM pass streams the file row by row, so the
// input may be far larger than RAM. It accepts the same Config as Fit —
// including Observer, CollectTrace, and Checkpoint — and applies the same
// validation and defaulting. Stopping is by tolerance and MaxIter
// (TargetAccuracy needs an in-memory ideal-error solve; use Fit for that).
func FitStreamFileConfig(path string, cfg Config) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	src, err := matrix.OpenFileRowSource(path)
	if err != nil {
		return nil, err
	}
	src.SetBadRecordBudget(cfg.BadRecordBudget)
	n, dims := src.Dims()
	if n == 0 || dims == 0 {
		return nil, fmt.Errorf("%w: %s is %d x %d", ErrEmptyInput, path, n, dims)
	}
	cfg = cfg.normalize(dims)
	tr, col := cfg.tracer()
	opt := cfg.ppcaBaseOptions()
	// Passed through so ppca.FitStream reports its "accuracy targets need
	// Fit" error instead of silently ignoring the field.
	opt.TargetAccuracy = cfg.TargetAccuracy
	opt.Tracer = tr
	opt.Interrupt = cluster.NewInterrupt(cfg.Context, cfg.StallTimeout)
	res, err := driver.Restart(opt.Options, cfg.Resume, func(d driver.Options) (*ppca.Result, error) {
		opt.Options = d
		return ppca.FitStream(src, opt)
	})
	if err != nil {
		return nil, err
	}
	out := attachTrace(fromPPCA(LocalPPCA, cfg.Seed, res), col)
	out.SkippedRecords = src.Skipped()
	return out, nil
}

// MixtureResult is the output of FitMixture.
type MixtureResult = ppca.MixtureResult

// MixtureOptions configures FitMixture.
type MixtureOptions = ppca.MixtureOptions

// DefaultMixtureOptions returns defaults for m local PPCA models of d
// components each.
func DefaultMixtureOptions(m, d int) MixtureOptions { return ppca.DefaultMixtureOptions(m, d) }

// FitMixture fits a mixture of PPCA models (§2.4's second desirable
// property: "multiple PPCA models can be combined as a probabilistic
// mixture for better accuracy and to express complex models").
func FitMixture(y *Dense, opt MixtureOptions) (*MixtureResult, error) {
	return ppca.FitMixture(y, opt)
}

// IdealError computes the reconstruction error of an exact rank-d PCA on a
// sampled subset of y's rows — the baseline for "percentage of ideal
// accuracy" in the paper's figures.
func IdealError(y *Sparse, d int, seed uint64) float64 {
	if seed == 0 {
		seed = ppca.DefaultOptions(d).Seed
	}
	return accuracy.Ideal(y, d, seed)
}
