// Package ssvd implements the Mahout-PCA baseline: stochastic SVD (Halko's
// randomized method, §2.3) with Mahout's "PCA option" — the mean is stored
// separately from the sparse input and propagated through the matrix
// operations. The pipeline runs as MapReduce jobs on internal/mapred with
// Mahout's communication pattern: the projected matrix Y·Ω and the
// orthonormal basis Q are fully materialized between jobs, and the Bt job's
// mappers emit one partial block per input row with no in-mapper combining —
// exactly the behaviour that made Mahout-PCA's mappers produce terabytes of
// intermediate data in the paper's measurements (§5.2).
//
// Mahout's re-run-and-keep-the-best refinement is the best-of-rounds loop of
// the randomized-sketch engines, so a fit is one more round engine on
// internal/rsvd's shared sketch step, with rsvd's options and result. Its Q
// and power jobs are rsvd's projection job (rsvd.Projector).
package ssvd

import (
	"fmt"

	"spca/internal/colmean"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rsvd"
	"spca/internal/trace"
)

// DefaultOptions mirrors the paper's Mahout-PCA configuration: Mahout's
// default of zero power iterations (its -q flag, which is why its accuracy
// plateaus in the paper's Figures 4-5), an oversample of 15, and up to ten
// rounds. §2.3: "accuracy can be improved through running the randomization
// step multiple times" — each round redraws Ω, runs the full pipeline, and
// keeps the best components seen so far.
func DefaultOptions(d int) rsvd.Options {
	return rsvd.Options{
		Components:      d,
		Oversample:      15,
		PowerIterations: 0,
		MaxRounds:       10,
		Seed:            42,
	}
}

// FitMapReduce runs the SSVD-PCA pipeline on the MapReduce engine.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt rsvd.Options) (*rsvd.Result, error) {
	if err := opt.Validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := eng.Cluster
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitSSVD", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)))
		defer tr.End()
	}
	// Mahout's PCA option: compute the mean but keep it separate.
	return rsvd.FitSketch("mahout-pca", opt, rows, dims, cl, eng,
		func() ([]float64, error) { return colmean.MapReduce(eng, "ssvd-mean", rows, dims) },
		func(mean []float64) rsvd.RoundEngine {
			indexed := rsvd.IndexRows(rows)
			return &engine{eng: eng, opt: opt, dims: dims, indexed: indexed, mean: mean,
				proj: rsvd.NewProjector(eng, indexed, mean)}
		})
}

// engine runs one Mahout round as MapReduce jobs. The indexed-row input is
// built once per fit and reused by every projection and Bt job. The Bt job
// emits one fresh k-vector per non-zero: the cost model is the emitted
// bytes, which mapred charges whatever the store.
type engine struct {
	eng     *mapred.Engine
	opt     rsvd.Options
	dims    int
	indexed []rsvd.IndexedRow
	mean    []float64
	proj    *rsvd.Projector
}

func (e *engine) Round(round, k int) (*matrix.Dense, []float64, error) {
	cl := e.eng.Cluster
	// Ω: a fresh D x k Gaussian test matrix per round, broadcast to all
	// mappers. (Mahout cannot use sPCA's smart-guess trick — its random
	// matrix would need as many rows as the input, §5.2.)
	omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(e.opt.Seed, "ssvd/omega", uint64(round))), e.dims, k)
	mapred.Broadcast(e.eng, "ssvd/omega", mapred.BytesOfDense(omega))

	// Q job: project and orthonormalize. The projected matrix (N x k) is
	// materialized to HDFS, then QR'd blockwise (one charged phase).
	if err := e.proj.Run("QJob", omega); err != nil {
		return nil, nil, err
	}
	q := rsvd.QRPhase(cl, "ssvd/qr", e.proj.P)

	// Optional power iterations (Mahout -q): Q ← QR(Yc·(YcᵀQ)).
	for p := 0; p < e.opt.PowerIterations; p++ {
		bt, err := btJob(e.eng, e.indexed, e.dims, e.mean, q)
		if err != nil {
			return nil, nil, err
		}
		mapred.Broadcast(e.eng, "ssvd/bt", mapred.BytesOfDense(bt))
		if err := e.proj.Run(fmt.Sprintf("PowerJob-%d", p), bt); err != nil {
			return nil, nil, err
		}
		q = rsvd.QRPhase(cl, "ssvd/qr", e.proj.P)
	}

	// Bt job: Bt = Ycᵀ·Q (D x k), Mahout-style per-row emission.
	bt, err := btJob(e.eng, e.indexed, e.dims, e.mean, q)
	if err != nil {
		return nil, nil, err
	}
	// Small SVD of Bt on the driver: PCs are Bt's left singular vectors.
	w, s, _ := matrix.TopSVD(bt, e.opt.Components)
	cl.AddDriverCompute(int64(e.dims) * int64(k) * int64(k))
	return w, s, nil
}

// btJob computes Bt = Ycᵀ·Q (D x k). Faithful to Mahout's Bt job, each
// mapper emits one k-vector per non-zero of every row with NO in-mapper
// combining — the combiners downstream drown in mapper output, which is the
// scalability cliff the paper measured (4 TB of mapper output on Tweets).
func btJob(eng *mapred.Engine, indexed []rsvd.IndexedRow, dims int, mean []float64, q *matrix.Dense) (*matrix.Dense, error) {
	k := q.C
	job := mapred.Job[rsvd.IndexedRow, int, []float64, []float64]{
		Name: "BtJob",
		NewMapper: func(int) mapred.Mapper[rsvd.IndexedRow, int, []float64] {
			return mapred.MapperFunc[rsvd.IndexedRow, int, []float64](
				func(rec rsvd.IndexedRow, out mapred.Emitter[int, []float64]) {
					qi := q.Row(rec.Idx)
					for t, j := range rec.Row.Indices {
						part := make([]float64, k)
						matrix.AXPY(rec.Row.Values[t], qi, part)
						out.Emit(j, part)
					}
					out.AddOps(int64(rec.Row.NNZ() * k))
				})
		},
		Reduce: func(_ int, vs [][]float64, o mapred.Ops) []float64 {
			sum := make([]float64, k)
			for _, v := range vs {
				matrix.AXPY(1, v, sum)
				o.AddOps(int64(k))
			}
			return sum
		},
		InputBytes: func(r rsvd.IndexedRow) int64 {
			return mapred.BytesOfSparseVec(r.Row) + int64(k)*8 // reads Y and Q
		},
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	out, err := mapred.Run(eng, job, indexed)
	if err != nil {
		return nil, err
	}
	// Mean propagation: Bt = Yᵀ·Q - Ym ⊗ colSum(Q).
	colSum := make([]float64, k)
	for i := 0; i < q.R; i++ {
		matrix.AXPY(1, q.Row(i), colSum)
	}
	bt := matrix.NewDense(dims, k)
	for j, v := range out {
		copy(bt.Row(j), v)
	}
	bt.SubOuter(mean, colSum)
	eng.Cluster.AddDriverCompute(int64(dims) * int64(k))
	return bt, nil
}
