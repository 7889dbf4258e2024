// Command spca runs one of the reproduced PCA algorithms on a matrix file or
// a generated dataset, printing the principal components and the simulated
// cluster metrics.
//
// Usage:
//
//	spca -algo spca-spark -in matrix.spmx -d 50 -out components.dmx
//	spca -algo mahout-pca -dataset tweets -rows 10000 -cols 1000 -d 20
//	spca -list
//
// Input matrices use the spmx text format ("spmx R C NNZ" header followed by
// "row col value" triplets) or the SPMB binary container; components are
// written in the dmx dense text format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"spca"
	"spca/internal/parallel"
)

func main() {
	var (
		algo      = flag.String("algo", string(spca.SPCASpark), "algorithm: spca-spark | spca-mapreduce | mahout-pca | mllib-pca | svd-bidiag | rsvd-mapreduce | rsvd-spark | ppca-local")
		in        = flag.String("in", "", "input matrix file (spmx text or SPMB binary)")
		out       = flag.String("out", "", "write components to this file (dmx text); default: summary only")
		dsKind    = flag.String("dataset", "", "generate a dataset instead of reading one: tweets | biotext | diabetes | images")
		rows      = flag.Int("rows", 10000, "rows for -dataset")
		cols      = flag.Int("cols", 1000, "columns for -dataset")
		rank      = flag.Int("rank", 0, "planted rank for -dataset (0 = family default)")
		d         = flag.Int("d", 50, "number of principal components")
		iters     = flag.Int("iters", 10, "maximum refinement iterations/rounds")
		target    = flag.Float64("target", 0, "stop at this fraction of ideal accuracy, e.g. 0.95 (0 = run to the cap)")
		seed      = flag.Uint64("seed", 42, "random seed")
		nodes     = flag.Int("nodes", 0, "simulated cluster nodes (0 = paper default of 8)")
		driver    = flag.Float64("driver-gb", 0, "simulated driver memory in GB (0 = 32)")
		smart     = flag.Bool("smart-guess", false, "enable sPCA-SG initialization")
		oversamp  = flag.Int("oversample", 0, "extra sketch columns for rsvd-* / mahout-pca (0 = engine default)")
		power     = flag.Int("power", 0, "power iterations for rsvd-* / mahout-pca (0 = engine default, negative = none)")
		listAlg   = flag.Bool("list", false, "list algorithms and exit")
		stream    = flag.Bool("stream", false, "stream the -in file row by row (out-of-core PPCA; ignores -algo/-target)")
		ckptDir   = flag.String("checkpoint-dir", "", "write driver checkpoints to this directory, resume from its latest snapshot, and auto-resume after a crash")
		timeout   = flag.Duration("timeout", 0, "abort the fit after this much wall-clock time (graceful: final checkpoint with -checkpoint-dir, resumable)")
		stallTime = flag.Duration("stall-timeout", 0, "abort if no iteration/phase progress for this long (stall watchdog; dumps a phase summary)")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every K iterations (with -checkpoint-dir)")
		ckptKeep  = flag.Int("keep-snapshots", 0, "checkpoint generations to retain (0 = default 3, negative = unlimited)")
		maxAtt    = flag.Int("max-attempts", 0, "task attempts per MapReduce phase before the job fails (0 = engine default 4)")
		corrupt   = flag.Float64("corrupt-rate", 0, "inject payload corruption: probability a task's shuffle/cache/broadcast payload arrives corrupt (detected by checksum, recovered by retry)")
		ckptCorr  = flag.Float64("ckpt-corrupt-rate", 0, "inject checkpoint corruption: probability a written snapshot is torn or bit-flipped on disk (recovered from an older generation on resume)")
		badBudget = flag.Int("bad-record-budget", 0, "malformed input records to skip per pass instead of failing (text inputs; 0 = strict)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event file of the run (open in Perfetto)")
		saveModel = flag.String("save-model", "", "save the fitted model to this file")
		loadModel = flag.String("load-model", "", "skip fitting; load a model saved with -save-model")
		transform = flag.String("transform", "", "write the input's latent representation (N x d, dmx) to this file")
	)
	flag.Parse()

	if *listAlg {
		fmt.Println("spca-spark      sPCA on the Spark-like engine (Algorithm 5)")
		fmt.Println("spca-mapreduce  sPCA on the Hadoop-like engine (Algorithm 4)")
		fmt.Println("mahout-pca      stochastic SVD baseline on MapReduce")
		fmt.Println("mllib-pca       covariance + eigendecomposition baseline on Spark")
		fmt.Println("svd-bidiag      dense QR + bidiagonal-SVD pipeline on MapReduce (RScaLAPACK-style)")
		fmt.Println("rsvd-mapreduce  distributed randomized SVD (seeded range finder + power iterations) on MapReduce")
		fmt.Println("rsvd-spark      communication-optimal randomized SVD (one sketch per node, driver merge) on Spark")
		fmt.Println("ppca-local      single-machine PPCA reference (Algorithm 1)")
		return
	}

	cfg := spca.Config{
		Algorithm:       spca.Algorithm(*algo),
		Components:      *d,
		MaxIter:         *iters,
		TargetAccuracy:  *target,
		Seed:            *seed,
		SmartGuess:      *smart,
		Oversample:      *oversamp,
		PowerIterations: *power,
		CollectTrace:    *traceOut != "",
		Cluster: spca.ClusterConfig{
			Nodes:          *nodes,
			DriverMemoryGB: *driver,
		},
	}
	cfg.MaxAttempts = *maxAtt
	cfg.BadRecordBudget = *badBudget
	if *ckptDir != "" {
		cfg.Checkpoint = spca.CheckpointSpec{Interval: *ckptEvery, Dir: *ckptDir, Keep: *ckptKeep}
		// A populated checkpoint directory means an earlier run was aborted
		// or killed: continue it. An empty directory starts fresh.
		cfg.Resume = true
	}
	cfg.StallTimeout = *stallTime

	// Cooperative cancellation: ctrl-C / SIGTERM (and -timeout) cancel the
	// fit's context; the driver finishes the current boundary, writes a final
	// checkpoint when -checkpoint-dir is set, and unwinds with a resumable
	// error. A second signal hard-stops the worker pools and exits.
	ctx := context.Background()
	if *timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, *timeout)
		defer cancelT()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sigs := make(chan os.Signal, 2) // the two signals the watcher acts on
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	cfg.Context = ctx
	// The watcher wakes only on a delivered signal, never on the context
	// ending by itself (the -timeout deadline, or the deferred cancel of a
	// normal exit).
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "spca: interrupted, finishing the current iteration (press ctrl-C again to hard-stop)")
		cancel()
		<-sigs
		var hard atomic.Bool
		hard.Store(true)
		parallel.SetAbort(&hard) // stop in-flight kernels from claiming more work
		fmt.Fprintln(os.Stderr, "spca: second signal, hard stop")
		os.Exit(130)
	}()
	if *corrupt > 0 || *ckptCorr > 0 {
		cfg.Faults = &spca.FaultPlan{
			Seed:                     *seed,
			CorruptionRate:           *corrupt,
			CheckpointCorruptionRate: *ckptCorr,
		}
	}

	if *stream {
		// Out-of-core mode: the matrix is never loaded; every EM pass
		// streams the file. Only load it if a -transform was requested.
		if *in == "" {
			fatal(fmt.Errorf("-stream requires -in <file>"))
		}
		streamCfg := cfg
		streamCfg.Algorithm = ""     // streaming is always local PPCA
		streamCfg.TargetAccuracy = 0 // accuracy targets need an in-memory fit
		res, err := spca.FitStreamFileConfig(*in, streamCfg)
		if err != nil {
			abortExit(err, *ckptDir)
		}
		fmt.Printf("streamed fit: %d x %d components, %d iterations, final error %.6f\n",
			res.Components.R, res.Components.C, res.Iterations, res.Err)
		if res.SkippedRecords > 0 {
			fmt.Printf("skipped %d malformed records per pass (budget %d)\n", res.SkippedRecords, *badBudget)
		}
		writeTrace(res, *traceOut)
		var y *spca.Sparse
		if *transform != "" {
			if y, err = spca.LoadSparseFile(*in); err != nil {
				fatal(err)
			}
		}
		finish(&res.Model, y, *out, *saveModel, *transform)
		return
	}

	y, err := loadInput(*in, *dsKind, *rows, *cols, *rank, *seed, *badBudget)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("input: %d x %d, %d non-zeros (density %.4f)\n", y.R, y.C, y.NNZ(),
		float64(y.NNZ())/(float64(y.R)*float64(y.C)))

	if *loadModel != "" {
		mdl, err := spca.LoadModelFile(*loadModel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("model loaded from %s (%s, %d x %d components)\n",
			*loadModel, mdl.Algorithm, mdl.Components.R, mdl.Components.C)
		finish(mdl, y, *out, *saveModel, *transform)
		return
	}

	res, err := spca.Fit(y, cfg)
	if err != nil {
		abortExit(err, *ckptDir)
	}

	fmt.Printf("algorithm:   %s\n", res.Algorithm)
	fmt.Printf("components:  %d x %d\n", res.Components.R, res.Components.C)
	fmt.Printf("iterations:  %d\n", res.Iterations)
	fmt.Printf("final error: %.6f\n", res.Err)
	if res.NoiseVariance > 0 {
		fmt.Printf("noise var:   %.6g\n", res.NoiseVariance)
	}
	fmt.Printf("cluster:     %s\n", res.Metrics.String())
	for _, h := range res.History {
		fmt.Printf("  iter %2d: err=%.6f", h.Iter, h.Err)
		if h.Accuracy > 0 {
			fmt.Printf(" accuracy=%.1f%%", h.Accuracy*100)
		}
		fmt.Printf(" t=%.1fs\n", h.SimSeconds)
	}
	if sum := res.Summary(); len(sum) > 0 {
		fmt.Printf("phases:\n")
		for _, p := range sum {
			fmt.Printf("  %-28s x%-5d %9.1fs  shuffle %8.1f MB  disk %8.1f MB\n",
				p.Name, p.Count, p.Seconds,
				float64(p.ShuffleBytes)/1e6, float64(p.DiskBytes)/1e6)
		}
	}
	writeTrace(res, *traceOut)

	finish(&res.Model, y, *out, *saveModel, *transform)
}

// writeTrace exports the collected trace in Chrome trace_event format.
func writeTrace(res *spca.Result, path string) {
	if path == "" || res.Trace == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := spca.WriteChromeTrace(f, res.Trace); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", path)
}

// finish handles the output options shared by the fit and load paths. It
// takes the Model — the projection surface — because that is all saving,
// transforming, or exporting components needs.
func finish(m *spca.Model, y *spca.Sparse, out, saveModel, transform string) {
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := spca.WriteDense(f, m.Components); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("components written to %s\n", out)
	}
	if saveModel != "" {
		if err := m.SaveFile(saveModel); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", saveModel)
	}
	if transform != "" {
		x, err := m.Transform(y)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(transform)
		if err != nil {
			fatal(err)
		}
		if err := spca.WriteDense(f, x); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("latent representation (%d x %d) written to %s\n", x.R, x.C, transform)
	}
}

func loadInput(in, dsKind string, rows, cols, rank int, seed uint64, badBudget int) (*spca.Sparse, error) {
	switch {
	case in != "" && dsKind != "":
		return nil, fmt.Errorf("use either -in or -dataset, not both")
	case in != "":
		m, skipped, err := spca.LoadSparseFileBudget(in, badBudget)
		if skipped > 0 {
			fmt.Printf("skipped %d malformed records in %s (budget %d)\n", skipped, in, badBudget)
		}
		return m, err
	case dsKind != "":
		return spca.NewDataset(spca.DatasetSpec{
			Kind: spca.DatasetKind(dsKind), Rows: rows, Cols: cols, Rank: rank, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("provide -in <file> or -dataset <kind> (see -h)")
	}
}

// abortExit reports a fit error and exits. Cooperative aborts get their
// diagnostics, a resume hint when a checkpoint landed, and conventional exit
// codes: 124 for a deadline (timeout(1)'s code), 125 for a stall-watchdog
// abort, 130 for SIGINT-style cancellation. Everything else is a plain fatal.
func abortExit(err error, ckptDir string) {
	var ab *spca.AbortError
	if !errors.As(err, &ab) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "spca:", err)
	if ab.Diagnostic != "" {
		fmt.Fprintln(os.Stderr, ab.Diagnostic)
	}
	if ab.Checkpointed && ckptDir != "" {
		// ab.Iter counts completed iterations; the newest snapshot covers it
		// or — after a mid-iteration abort — an earlier boundary, so point at
		// the directory rather than naming an iteration.
		fmt.Fprintf(os.Stderr, "resume with -checkpoint-dir %s (aborted after iteration %d, snapshot on disk)\n", ckptDir, ab.Iter)
	}
	switch {
	case errors.Is(err, spca.ErrDeadlineExceeded):
		os.Exit(124)
	case errors.Is(err, spca.ErrStalled):
		os.Exit(125)
	default:
		os.Exit(130)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spca:", err)
	os.Exit(1)
}
