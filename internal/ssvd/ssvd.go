// Package ssvd implements the Mahout-PCA baseline: stochastic SVD (Halko's
// randomized method, §2.3) with Mahout's "PCA option" — the mean is stored
// separately from the sparse input and propagated through the matrix
// operations. The pipeline runs as MapReduce jobs on internal/mapred with
// Mahout's communication pattern: the projected matrix Y·Ω and the
// orthonormal basis Q are fully materialized between jobs, and the Bt job's
// mappers emit one partial block per input row with no in-mapper combining —
// exactly the behaviour that made Mahout-PCA's mappers produce terabytes of
// intermediate data in the paper's measurements (§5.2).
package ssvd

import (
	"errors"
	"fmt"
	"math"

	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// Options configures a Mahout-PCA-style stochastic SVD run.
type Options struct {
	// Components is d, the number of principal components.
	Components int
	// Oversample adds extra random projections for accuracy (Halko's p).
	// Default 15 (Mahout's default ballpark).
	Oversample int
	// PowerIterations is the number of power-iteration refinements per
	// round (Mahout's -q flag). Mahout defaults to zero, which is why its
	// accuracy plateaus in the paper's Figures 4-5.
	PowerIterations int
	// MaxRounds bounds how many times the randomized sketch is re-run.
	// §2.3: "accuracy can be improved through running the randomization
	// step multiple times" — each round redraws Ω, runs the full pipeline,
	// and keeps the best components seen so far.
	MaxRounds int
	// TargetAccuracy stops re-running once this fraction of ideal accuracy
	// is reached (requires IdealError).
	TargetAccuracy float64
	// IdealError is the exact rank-d PCA error on the sampled rows.
	IdealError float64
	// Seed drives the random test matrices Ω.
	Seed uint64
	// Tracer, when non-nil, receives deterministic spans for the fit, each
	// refinement round, and every job/phase charge. Nil disables tracing.
	Tracer *trace.Tracer
}

// DefaultOptions mirrors the paper's Mahout-PCA configuration: Mahout's
// default of zero power iterations, refined by re-running the sketch.
func DefaultOptions(d int) Options {
	return Options{
		Components:      d,
		Oversample:      15,
		PowerIterations: 0,
		MaxRounds:       10,
		Seed:            42,
	}
}

// IterationStat records accuracy after each refinement round.
type IterationStat struct {
	Iter       int
	Err        float64
	Accuracy   float64
	SimSeconds float64
}

// Result is the output of a stochastic-SVD PCA run.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Singular holds the corresponding singular values of the centered data.
	Singular []float64
	// Iterations counts refinement rounds (initial pass = 1).
	Iterations int
	History    []IterationStat
	Metrics    cluster.Metrics
	// Phases is the per-phase cost breakdown aggregated from the phase log.
	Phases []cluster.PhaseSummary
}

// FitMapReduce runs the SSVD-PCA pipeline on the MapReduce engine.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if opt.Components <= 0 {
		return nil, errors.New("ssvd: Components must be positive")
	}
	if len(rows) == 0 {
		return nil, errors.New("ssvd: empty input")
	}
	if opt.Components > dims {
		return nil, fmt.Errorf("ssvd: Components %d exceeds dimensionality %d", opt.Components, dims)
	}
	cl := eng.Cluster
	tr := opt.Tracer
	if tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitSSVD", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)))
		defer tr.End()
	}
	n := len(rows)
	k := opt.Components + opt.Oversample
	if k > dims {
		k = dims
	}
	if k > n {
		k = n
	}

	// Mahout's PCA option: compute the mean but keep it separate.
	mean, err := meanPass(eng, rows, dims)
	if err != nil {
		return nil, err
	}

	sample := accuracy.Draw(rows, dims, accuracy.SketchSeed(opt.Seed))
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1
	}
	// The indexed-row input is built once per fit and reused by every
	// projection/Bt job — the per-round jobs themselves keep Mahout's
	// allocating emission pattern on purpose (that cost model is what the
	// baseline measures).
	indexed := make([]indexedRow, len(rows))
	for i, r := range rows {
		indexed[i] = indexedRow{idx: i, row: r}
	}
	res := &Result{}
	bestErr := math.Inf(1)
	for round := 1; round <= maxRounds; round++ {
		// Round-boundary poll: the jobs inside the round poll on their own
		// (via mapred.Run), but a cancel landing between rounds should not
		// start the next sketch.
		if cause := cl.Interrupted(); cause != nil {
			return nil, fmt.Errorf("ssvd: round %d: %w", round, cause)
		}
		// The round body runs in a closure so the round span closes on every
		// exit path (job error or normal completion).
		stop, err := func() (bool, error) {
			if tr != nil {
				tr.Begin("round", trace.KindIteration, trace.I("round", int64(round)))
				defer tr.End()
			}
			// Ω: a fresh D x k Gaussian test matrix per round, broadcast to all
			// mappers. (Mahout cannot use sPCA's smart-guess trick — its random
			// matrix would need as many rows as the input, §5.2.)
			omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(opt.Seed, "ssvd/omega", uint64(round))), dims, k)
			broadcastBytes(cl, "ssvd/omega", mapred.BytesOfDense(omega))

			// Q job: project and orthonormalize. The projected matrix (N x k)
			// is materialized to HDFS, then QR'd blockwise (one charged phase).
			proj, err := projectJob(eng, "QJob", indexed, mean, omega)
			if err != nil {
				return false, err
			}
			q := qrPhase(cl, proj)

			// Optional power iterations (Mahout -q): Q ← QR(Yc·(YcᵀQ)).
			var bt *matrix.Dense
			for p := 0; p < opt.PowerIterations; p++ {
				bt, err = btJob(eng, indexed, dims, mean, q)
				if err != nil {
					return false, err
				}
				broadcastBytes(cl, "ssvd/bt", mapred.BytesOfDense(bt))
				proj, err = projectJob(eng, fmt.Sprintf("PowerJob-%d", p), indexed, mean, bt)
				if err != nil {
					return false, err
				}
				q = qrPhase(cl, proj)
			}

			// Bt job: Bt = Ycᵀ·Q (D x k), Mahout-style per-row emission.
			bt, err = btJob(eng, indexed, dims, mean, q)
			if err != nil {
				return false, err
			}
			// Small SVD of Bt on the driver: PCs are Bt's left singular vectors.
			w, s, _ := matrix.TopSVD(bt, opt.Components)
			cl.AddDriverCompute(int64(dims) * int64(k) * int64(k))

			// Keep the best-of-rounds components (§2.3's accuracy/compute trade).
			e := sample.Err(mean, w, w)
			if e < bestErr {
				bestErr = e
				res.Components = w
				res.Singular = s
			}
			acc := accuracy.Of(opt.IdealError, bestErr)
			stat := IterationStat{
				Iter: round, Err: bestErr, Accuracy: acc, SimSeconds: cl.Metrics().SimSeconds,
			}
			res.History = append(res.History, stat)
			if tr != nil {
				tr.IterationDone(trace.Iteration{
					Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SimSeconds: stat.SimSeconds,
				})
			}
			return opt.TargetAccuracy > 0 && acc >= opt.TargetAccuracy, nil
		}()
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	res.Iterations = len(res.History)
	res.Metrics = cl.Metrics()
	res.Phases = cluster.Summarize(cl.PhaseLog(), cl.Config())
	return res, nil
}

func broadcastBytes(cl *cluster.Cluster, name string, bytes int64) {
	cl.RunPhase(cluster.PhaseStats{
		Name:         name,
		ShuffleBytes: bytes * int64(cl.Config().Nodes),
	})
}

// meanPass computes column means with a small job (same shape as sPCA's).
func meanPass(eng *mapred.Engine, rows []matrix.SparseVector, dims int) ([]float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "ssvd-mean",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &meanMapper{partial: map[int]float64{}}
		},
		Combine: func(a, b float64) float64 { return a + b },
		Reduce: func(k int, vs []float64, o mapred.Ops) float64 {
			var s float64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		InputBytes: mapred.BytesOfSparseVec,
		KeyBytes:   mapred.BytesOfInt,
		ValueBytes: mapred.BytesOfFloat64,
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	count := out[-1]
	if count == 0 {
		return nil, errors.New("ssvd: mean job saw no rows")
	}
	mean := make([]float64, dims)
	for j, v := range out {
		if j >= 0 {
			mean[j] = v / count
		}
	}
	return mean, nil
}

type meanMapper struct {
	partial map[int]float64
	count   float64
}

func (m *meanMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	for k, j := range row.Indices {
		m.partial[j] += row.Values[k]
	}
	m.count++
	out.AddOps(int64(row.NNZ()))
}

func (m *meanMapper) Cleanup(out mapred.Emitter[int, float64]) {
	for j, v := range m.partial {
		out.Emit(j, v)
	}
	out.Emit(-1, m.count)
}

// projectJob computes P = Yc·B for an in-memory D x k matrix B with mean
// propagation, materializing the full N x k result as job output — the
// intermediate-data pattern of Mahout's Q job.
func projectJob(eng *mapred.Engine, name string, indexed []indexedRow, mean []float64, b *matrix.Dense) (*matrix.Dense, error) {
	k := b.C
	// Ym·B, subtracted from every projected row (mean propagation).
	mb := make([]float64, k)
	for j, mj := range mean {
		if mj != 0 {
			matrix.AXPY(mj, b.Row(j), mb)
		}
	}
	job := mapred.Job[indexedRow, int, []float64, []float64]{
		Name: name,
		NewMapper: func(int) mapred.Mapper[indexedRow, int, []float64] {
			return mapred.MapperFunc[indexedRow, int, []float64](
				func(rec indexedRow, out mapred.Emitter[int, []float64]) {
					p := make([]float64, k)
					for t, j := range rec.row.Indices {
						matrix.AXPY(rec.row.Values[t], b.Row(j), p)
					}
					matrix.AXPY(-1, mb, p)
					out.Emit(rec.idx, p)
					out.AddOps(int64(rec.row.NNZ()*k + k))
				})
		},
		Reduce:      func(_ int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  func(r indexedRow) int64 { return mapred.BytesOfSparseVec(r.row) },
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	out, err := mapred.Run(eng, job, indexed)
	if err != nil {
		return nil, err
	}
	p := matrix.NewDense(len(indexed), k)
	for i := 0; i < len(indexed); i++ {
		v, ok := out[i]
		if !ok {
			return nil, fmt.Errorf("ssvd: %s lost row %d", name, i)
		}
		copy(p.Row(i), v)
	}
	return p, nil
}

type indexedRow struct {
	idx int
	row matrix.SparseVector
}

// qrPhase orthonormalizes the materialized projection. Mahout performs a
// distributed blockwise QR; we run the real QR on the driver's copy and
// charge the distributed cost: O(N·k²) compute plus a full write+read of Q.
func qrPhase(cl *cluster.Cluster, p *matrix.Dense) *matrix.Dense {
	q, _ := matrix.QR(p)
	nk := int64(p.R) * int64(p.C) * 8
	cl.RunPhase(cluster.PhaseStats{
		Name:              "ssvd/qr",
		ComputeOps:        int64(p.R) * int64(p.C) * int64(p.C) * 2,
		DiskBytes:         2 * nk, // write Q, read it back in the next job
		MaterializedBytes: nk,     // the N x k Q matrix — Mahout's big intermediate
		Tasks:             int64(cl.TotalCores()),
	})
	return q
}

// btJob computes Bt = Ycᵀ·Q (D x k). Faithful to Mahout's Bt job, each
// mapper emits one k-vector per non-zero of every row with NO in-mapper
// combining — the combiners downstream drown in mapper output, which is the
// scalability cliff the paper measured (4 TB of mapper output on Tweets).
func btJob(eng *mapred.Engine, indexed []indexedRow, dims int, mean []float64, q *matrix.Dense) (*matrix.Dense, error) {
	k := q.C
	job := mapred.Job[indexedRow, int, []float64, []float64]{
		Name: "BtJob",
		NewMapper: func(int) mapred.Mapper[indexedRow, int, []float64] {
			return mapred.MapperFunc[indexedRow, int, []float64](
				func(rec indexedRow, out mapred.Emitter[int, []float64]) {
					qi := q.Row(rec.idx)
					for t, j := range rec.row.Indices {
						part := make([]float64, k)
						matrix.AXPY(rec.row.Values[t], qi, part)
						out.Emit(j, part)
					}
					out.AddOps(int64(rec.row.NNZ() * k))
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
		InputBytes: func(r indexedRow) int64 {
			return mapred.BytesOfSparseVec(r.row) + int64(k)*8 // reads Y and Q
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
	for j, mj := range mean {
		if mj != 0 {
			matrix.AXPY(-mj, colSum, bt.Row(j))
		}
	}
	eng.Cluster.AddDriverCompute(int64(dims) * int64(k))
	return bt, nil
}
