// Package covpca implements the MLlib-PCA baseline (§2.1): compute the D x D
// Gramian/covariance matrix with one distributed pass (Chu et al.'s one-pass
// scheme, which MLlib's RowMatrix uses), pull it into the driver's memory,
// and eigendecompose it there. The driver-side D x D allocation goes through
// the simulated cluster's driver-memory accounting, so the algorithm fails
// with cluster.ErrDriverOOM beyond a dimensionality threshold — reproducing
// the paper's observation that MLlib-PCA cannot process more than ~6,000
// columns on a 32 GB machine (Table 2, Figures 7-8).
package covpca

import (
	"errors"
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/rdd"
	"spca/internal/trace"
)

// Options configures an MLlib-PCA-style run.
type Options struct {
	// Components is d, the number of principal components.
	Components int
	// Seed drives the error-metric row sample (the algorithm itself is
	// deterministic).
	Seed uint64
	// Tracer, when non-nil, receives fit/action/phase spans for the run.
	// The nil default disables tracing with zero overhead.
	Tracer *trace.Tracer
}

// DefaultOptions mirrors the paper's MLlib-PCA configuration.
func DefaultOptions(d int) Options {
	return Options{Components: d, Seed: 42}
}

// Result is the output of a covariance-eigendecomposition PCA.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Eigenvalues are the corresponding covariance eigenvalues.
	Eigenvalues []float64
	// Err is the sampled relative 1-norm reconstruction error.
	Err     float64
	Metrics cluster.Metrics
	// Phases is the per-phase cost breakdown derived from the cluster's
	// phase log.
	Phases []cluster.PhaseSummary
}

// FitSpark runs MLlib-PCA on the Spark-like engine. It returns a wrapped
// cluster.ErrDriverOOM when the D x D covariance cannot fit in driver memory.
func FitSpark(ctx *rdd.Context, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if opt.Components <= 0 {
		return nil, errors.New("covpca: Components must be positive")
	}
	if len(rows) == 0 {
		return nil, errors.New("covpca: empty input")
	}
	if opt.Components > dims {
		return nil, fmt.Errorf("covpca: Components %d exceeds dimensionality %d", opt.Components, dims)
	}
	cl := ctx.Cluster()
	n := len(rows)

	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitCovPCA", trace.KindFit,
			trace.I("rows", int64(n)),
			trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)))
		defer tr.End()
	}

	y := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
	y.Persist()
	defer y.Unpersist()

	// One-pass Gramian G = YᵀY via treeAggregate. Every partition builds a
	// D x D dense partial (this is MLlib's communication pattern: partials
	// are D² no matter how sparse the data), and the final result must fit
	// in the driver.
	gram, err := rdd.Aggregate(y, "gramian",
		func() *matrix.Dense { return matrix.NewDense(dims, dims) },
		func(acc *matrix.Dense, row matrix.SparseVector, ops *rdd.TaskOps) *matrix.Dense {
			// Sparse rank-1 update (MLlib's spr): nnz² multiply-adds.
			for a, ja := range row.Indices {
				va := row.Values[a]
				r := acc.Row(ja)
				for b, jb := range row.Indices {
					r[jb] += va * row.Values[b]
				}
			}
			ops.AddOps(int64(row.NNZ() * row.NNZ()))
			return acc
		},
		func(a, b *matrix.Dense) *matrix.Dense { a.AddInPlace(b); return a },
		mapred.BytesOfDense,
	)
	if err != nil {
		return nil, fmt.Errorf("covpca: %w", err)
	}
	gramBytes := mapred.BytesOfDense(gram)
	defer cl.FreeDriver(gramBytes)

	// Column means (cheap second pass, as RowMatrix.computeColumnSummary).
	meanAgg, err := rdd.Aggregate(y, "colmeans",
		func() []float64 { return make([]float64, dims) },
		func(acc []float64, row matrix.SparseVector, ops *rdd.TaskOps) []float64 {
			for k, j := range row.Indices {
				acc[j] += row.Values[k]
			}
			ops.AddOps(int64(row.NNZ()))
			return acc
		},
		func(a, b []float64) []float64 { matrix.AXPY(1, b, a); return a },
		mapred.BytesOfVec,
	)
	if err != nil {
		return nil, fmt.Errorf("covpca: %w", err)
	}
	defer cl.FreeDriver(mapred.BytesOfVec(meanAgg))
	mean := meanAgg
	matrix.VecScale(1/float64(n), mean)

	// Covariance from the Gramian on the driver:
	// Cov = (G - N·m·mᵀ) / (N-1). Dense D² work.
	denom := float64(n - 1)
	if n == 1 {
		denom = 1
	}
	// The Gramian is not read again after this step, so the covariance
	// densify runs in place on its buffer instead of on a clone. The
	// simulated MLlib driver still holds two D x D matrices at this point
	// (Gramian + covariance), so the second allocation stays charged below.
	cov := gram
	// Rows of the covariance are independent, so the densify loop runs on
	// the parallel pool (each element computed exactly as before).
	parallel.For(dims, 4096/(dims+1)+1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := cov.Row(i)
			mi := mean[i]
			for j := 0; j < dims; j++ {
				r[j] = (r[j] - float64(n)*mi*mean[j]) / denom
			}
		}
	})
	// A second D x D matrix lives in the driver during this step.
	if err := cl.AllocDriver(gramBytes); err != nil {
		return nil, fmt.Errorf("covpca: covariance buffer: %w", err)
	}
	defer cl.FreeDriver(gramBytes)
	d3 := int64(dims) * int64(dims) * int64(dims)
	cl.AddDriverCompute(int64(dims)*int64(dims) + d3) // densify + full eigendecomposition

	// Eigendecomposition of the covariance. MLlib runs a full dense
	// decomposition (charged above as D³); numerically we extract the top-d
	// eigenpairs with Lanczos on the same matrix, which yields the same
	// components without the cubic wall-clock in this process.
	comps, vals := topEigenSym(cov, opt.Components, opt.Seed)

	res := &Result{
		Components:  comps,
		Eigenvalues: vals,
		Err:         accuracy.Draw(rows, dims, accuracy.Seed(opt.Seed)).Err(mean, comps, comps),
	}
	res.Metrics = cl.Metrics()
	res.Phases = cluster.Summarize(cl.PhaseLog(), cl.Config())
	if tr := opt.Tracer; tr != nil {
		// The pipeline is single-pass; report it as one logical iteration so
		// observers see the same shape as the iterative algorithms.
		tr.IterationDone(trace.Iteration{Iter: 1, Err: res.Err, SimSeconds: res.Metrics.SimSeconds})
	}
	return res, nil
}

// topEigenSym extracts the top-k eigenpairs of a symmetric PSD matrix.
func topEigenSym(a *matrix.Dense, k int, seed uint64) (*matrix.Dense, []float64) {
	steps := 3*k + 20
	u, s, _ := matrix.LanczosSVD(matrix.DenseOp{M: a}, k, steps, matrix.NewRNG(seed+0xE16))
	return u, s
}
