// Package svdbidiag implements the dense SVD pipeline of §2.2 (Demmel &
// Kahan's improvement of Golub–Kahan, the method RScaLAPACK exposes): QR
// decomposition of the mean-centered input, bidiagonalization of R, and SVD
// of the bidiagonal matrix. The QR step runs distributed as a TSQR
// (tall-skinny QR) MapReduce job — each task factors its block and the
// reduction tree stacks and re-factors the R blocks — while the remaining
// dense steps run on the driver, exactly as the paper's communication
// analysis assumes.
//
// The pipeline has no sparsity story: the mean-centered matrix is dense, so
// every block is densified before factoring. That, plus the O(ND² + D³)
// arithmetic and the O(max((N+D)d, D²)) intermediate data, is why the paper
// rules this method out for large D — behaviour this implementation
// reproduces measurably.
package svdbidiag

import (
	"errors"
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/colmean"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// Options configures a run.
type Options struct {
	// Components is d, the number of principal components to keep.
	Components int
	// Seed drives the error-metric row sample.
	Seed uint64
	// Tracer, when non-nil, receives fit/job/phase spans for the run.
	// The nil default disables tracing with zero overhead.
	Tracer *trace.Tracer
}

// DefaultOptions returns the standard configuration.
func DefaultOptions(d int) Options {
	return Options{Components: d, Seed: 42}
}

// Result is the output of FitMapReduce.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Singular holds the singular values of the centered input.
	Singular []float64
	// Err is the sampled relative 1-norm reconstruction error.
	Err     float64
	Metrics cluster.Metrics
	// Phases is the per-phase cost breakdown derived from the cluster's
	// phase log.
	Phases []cluster.PhaseSummary
}

// FitMapReduce runs the SVD-Bidiag PCA pipeline on the MapReduce engine.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if opt.Components <= 0 {
		return nil, errors.New("svdbidiag: Components must be positive")
	}
	if len(rows) == 0 {
		return nil, errors.New("svdbidiag: empty input")
	}
	if opt.Components > dims {
		return nil, fmt.Errorf("svdbidiag: Components %d exceeds dimensionality %d", opt.Components, dims)
	}
	if len(rows) < dims {
		return nil, fmt.Errorf("svdbidiag: QR needs rows (%d) >= columns (%d)", len(rows), dims)
	}
	cl := eng.Cluster
	n := len(rows)

	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitSVDBidiag", trace.KindFit,
			trace.I("rows", int64(n)),
			trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)))
		defer tr.End()
	}

	// Column means, one light job (the pipeline centers explicitly).
	mean, err := colmean.MapReduce(eng, "svdbidiag-mean", rows, dims)
	if err != nil {
		return nil, err
	}

	// Distributed TSQR over the densified, centered blocks.
	r, err := tsqrJob(eng, rows, dims, mean)
	if err != nil {
		return nil, err
	}
	// The paper's analysis counts the N x d thin-Q factor as step-1
	// intermediate data; charge its materialization.
	qBytes := int64(n) * int64(opt.Components) * 8
	cl.RunPhase(cluster.PhaseStats{
		Name:              "svdbidiag/q-materialize",
		DiskBytes:         qBytes,
		ShuffleBytes:      qBytes,
		MaterializedBytes: qBytes,
		Tasks:             int64(cl.TotalCores()),
	})

	// Stage-boundary poll before the driver-side dense work: the jobs above
	// poll via mapred.Run, but the D³ bidiagonalization below does not.
	if cause := cl.Interrupted(); cause != nil {
		return nil, fmt.Errorf("svdbidiag: bidiag-svd stage: %w", cause)
	}

	// Driver: bidiagonalize R and SVD it (steps ii-iii). Our dense SVD
	// performs Householder bidiagonalization + implicit-shift QR
	// internally — exactly the Demmel-Kahan pipeline.
	_, s, v := matrix.SVD(r)
	d3 := int64(dims) * int64(dims) * int64(dims)
	cl.AddDriverCompute(2 * d3)
	cl.RunPhase(cluster.PhaseStats{
		Name:              "svdbidiag/bidiag-svd",
		ShuffleBytes:      2 * int64(dims) * int64(dims) * 8,
		MaterializedBytes: 2 * int64(dims) * int64(dims) * 8,
	})

	d := opt.Components
	comps := matrix.NewDense(dims, d)
	for i := 0; i < dims; i++ {
		copy(comps.Row(i), v.Row(i)[:d])
	}

	res := &Result{
		Components: comps,
		Singular:   s[:d],
		Err:        accuracy.Draw(rows, dims, accuracy.Seed(opt.Seed)).Err(mean, comps, comps),
	}
	res.Metrics = cl.Metrics()
	res.Phases = cluster.Summarize(cl.PhaseLog(), cl.Config())
	if tr := opt.Tracer; tr != nil {
		// Single-pass pipeline; report one logical iteration so observers see
		// the same shape as the iterative algorithms.
		tr.IterationDone(trace.Iteration{Iter: 1, Err: res.Err, SimSeconds: res.Metrics.SimSeconds})
	}
	return res, nil
}

// tsqrJob runs the tall-skinny QR: each map task densifies and centers its
// block, factors it locally, and emits the D x D R factor; the reducer
// stacks all R factors and re-factors, yielding the global R.
func tsqrJob(eng *mapred.Engine, rows []matrix.SparseVector, dims int, mean []float64) (*matrix.Dense, error) {
	job := mapred.Job[matrix.SparseVector, int, *matrix.Dense, *matrix.Dense]{
		Name: "svdbidiag-tsqr",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, *matrix.Dense] {
			return &tsqrMapper{dims: dims, mean: mean}
		},
		// Combiner: stack two R factors and re-factor (associative).
		Combine: func(a, b *matrix.Dense) *matrix.Dense { return stackQR(a, b) },
		Reduce: func(_ int, vs []*matrix.Dense, o mapred.Ops) *matrix.Dense {
			// Stack every task's R factor once and re-factor in one shot —
			// cheaper than pairwise reduction and numerically identical.
			var total int
			for _, v := range vs {
				total += v.R
			}
			stacked := matrix.NewDense(total, vs[0].C)
			at := 0
			for _, v := range vs {
				for i := 0; i < v.R; i++ {
					copy(stacked.Row(at), v.Row(i))
					at++
				}
			}
			o.AddOps(2 * int64(total) * int64(stacked.C) * int64(stacked.C))
			return matrix.QRR(stacked)
		},
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfDense,
		ResultBytes: mapred.BytesOfDense,
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	r, ok := out[0]
	if !ok {
		return nil, errors.New("svdbidiag: TSQR produced no R factor")
	}
	return r, nil
}

type tsqrMapper struct {
	dims  int
	mean  []float64
	block [][]float64
}

func (m *tsqrMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, *matrix.Dense]) {
	dense := make([]float64, m.dims)
	for j := range dense {
		dense[j] = -m.mean[j]
	}
	for k, j := range row.Indices {
		dense[j] += row.Values[k]
	}
	m.block = append(m.block, dense)
	// Densification costs O(D) per row; the QR itself is charged in Cleanup.
	out.AddOps(int64(m.dims))
}

func (m *tsqrMapper) Cleanup(out mapred.Emitter[int, *matrix.Dense]) {
	if len(m.block) == 0 {
		return
	}
	block := matrix.NewDenseFromRows(m.block)
	var r *matrix.Dense
	if block.R >= block.C {
		r = matrix.QRR(block) // only R travels in a TSQR
	} else {
		// A block shorter than D: pad with zero rows so QR is defined.
		padded := matrix.NewDense(block.C, block.C)
		for i := 0; i < block.R; i++ {
			copy(padded.Row(i), block.Row(i))
		}
		r = matrix.QRR(padded)
	}
	out.Emit(0, r)
	out.AddOps(2 * int64(block.R) * int64(block.C) * int64(block.C))
}

// stackQR stacks two upper-triangular factors and re-factors them (used by
// the combiner when the engine merges two partials inside one task).
func stackQR(a, b *matrix.Dense) *matrix.Dense {
	stacked := matrix.NewDense(a.R+b.R, a.C)
	for i := 0; i < a.R; i++ {
		copy(stacked.Row(i), a.Row(i))
	}
	for i := 0; i < b.R; i++ {
		copy(stacked.Row(a.R+i), b.Row(i))
	}
	return matrix.QRR(stacked)
}
