package rsvd

import (
	"fmt"

	"spca/internal/colmean"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// FitMapReduce runs distributed randomized SVD on the MapReduce engine:
// broadcast a seeded Gaussian test matrix Ω, project P = Yc·Ω, orthonormalize
// with a charged QR phase, refine with q QR re-orthonormalized power
// iterations (Q ← QR(Yc·(YcᵀQ))), then take the small SVD of B = YcᵀQ on the
// driver. The projection job is the Projector Mahout-PCA runs too. Unlike
// the Mahout baseline in internal/ssvd, the B job uses in-mapper combining
// (one k-vector per column per task instead of one per non-zero). Both
// jobs' mappers come from per-fit pools.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.Validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := eng.Cluster
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitRSVD", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	return FitSketch("rsvd-mapreduce", opt, rows, dims, cl, eng,
		func() ([]float64, error) { return colmean.MapReduce(eng, "rsvd-mean", rows, dims) },
		func(mean []float64) RoundEngine {
			indexed := IndexRows(rows)
			return &mrEngine{
				eng: eng, opt: opt, dims: dims, indexed: indexed, mean: mean,
				proj: NewProjector(eng, indexed, mean),
			}
		})
}

// mrEngine implements one randomized-SVD sketch round as MapReduce jobs. The
// B job's mapper pool and slab spec, the small matrix B (D x k) and Q's
// column sums are made on the first round and reused afterwards.
type mrEngine struct {
	eng     *mapred.Engine
	opt     Options
	dims    int
	mean    []float64
	indexed []IndexedRow
	proj    *Projector
	bt      *parallel.Pool[*btMapper]
	bSpec   *mapred.DenseSpec
	b       *matrix.Dense // D x k, refilled by every B job
	colSum  []float64     // column sums of Q, k
}

func (e *mrEngine) Round(round, k int) (*matrix.Dense, []float64, error) {
	cl := e.eng.Cluster
	// Ω: a fresh D x k Gaussian test matrix per round, broadcast to all
	// mappers. Independent of ssvd's draws by stream name, not by offset.
	omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(e.opt.Seed, "rsvd/omega", uint64(round))), e.dims, k)
	mapred.Broadcast(e.eng, "rsvd/omega", mapred.BytesOfDense(omega))

	if err := e.proj.Run("rsvd-range", omega); err != nil {
		return nil, nil, err
	}
	q := QRPhase(cl, "rsvd/qr", e.proj.P)

	// Power iterations: Q ← QR(Yc·(YcᵀQ)), re-orthonormalizing after every
	// application so the basis never degenerates (Halko's recommendation).
	for pi := 0; pi < e.opt.PowerIterations; pi++ {
		if err := e.bJob(q); err != nil {
			return nil, nil, err
		}
		mapred.Broadcast(e.eng, "rsvd/b", mapred.BytesOfDense(e.b))
		if err := e.proj.Run(fmt.Sprintf("rsvd-power-%d", pi), e.b); err != nil {
			return nil, nil, err
		}
		q = QRPhase(cl, "rsvd/qr", e.proj.P)
	}

	// B = YcᵀQ (D x k), then the small SVD on the driver: principal
	// directions are B's left singular vectors.
	if err := e.bJob(q); err != nil {
		return nil, nil, err
	}
	w, s, _ := matrix.TopSVD(e.b, e.opt.Components)
	cl.AddDriverCompute(int64(e.dims) * int64(k) * int64(k))
	return w, s, nil
}

// bJob computes B = YcᵀQ (D x k) with in-mapper combining: each task folds
// its rows into column-keyed rows and emits one k-vector per touched column
// in Cleanup — the combining Mahout's Bt job lacks.
func (e *mrEngine) bJob(q *matrix.Dense) error {
	k := q.C
	if e.b == nil || e.b.C != k {
		e.b = matrix.NewDense(e.dims, k)
		e.colSum = make([]float64, k)
		e.bSpec = &mapred.DenseSpec{MinKey: 0, Keys: e.dims, Width: k}
		var pool *parallel.Pool[*btMapper]
		pool = parallel.NewPool(func() *btMapper {
			return &btMapper{pool: pool, rows: matrix.NewRowBlocks(k, e.dims)}
		})
		e.bt = pool
	}
	job := mapred.Job[IndexedRow, int, []float64, []float64]{
		Name: "rsvd-b",
		NewMapper: func(int) mapred.Mapper[IndexedRow, int, []float64] {
			m := e.bt.Get()
			m.rows.Reset() // a fault replay's mapper starts over too
			m.q = q
			return m
		},
		Combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		Reduce: func(_ int, vs [][]float64, o mapred.Ops) []float64 {
			sum := make([]float64, k)
			for _, v := range vs {
				matrix.AXPY(1, v, sum)
				o.AddOps(int64(k))
			}
			return sum
		},
		InputBytes: func(r IndexedRow) int64 {
			return mapred.BytesOfSparseVec(r.Row) + int64(k)*8 // reads Y and Q
		},
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
		Dense:       e.bSpec,
	}
	out, err := mapred.Run(e.eng, job, e.indexed)
	if err != nil {
		return err
	}
	e.b.Zero()
	for j, v := range out {
		copy(e.b.Row(j), v)
	}
	// Mean propagation on the driver: B = YᵀQ - Ym ⊗ colSum(Q).
	clear(e.colSum)
	for i := 0; i < q.R; i++ {
		matrix.AXPY(1, q.Row(i), e.colSum)
	}
	e.b.SubOuter(e.mean, e.colSum)
	e.eng.Cluster.AddDriverCompute(int64(q.R)*int64(k) + int64(e.dims)*int64(k))
	return nil
}

// btMapper folds its task's B-contributions into column-keyed rows
// (in-mapper combining) and emits each touched column once from Cleanup, in
// claim order. The reducer's value list is ordered by task, so the fold is
// deterministic. The slab store copies every emit, so Cleanup then puts the
// mapper back in its pool.
type btMapper struct {
	pool *parallel.Pool[*btMapper]
	q    *matrix.Dense
	rows matrix.RowBlocks
}

func (m *btMapper) Map(rec IndexedRow, out mapred.Emitter[int, []float64]) {
	m.rows.Scatter(rec.Row, m.q.Row(rec.Idx))
	out.AddOps(int64(rec.Row.NNZ() * m.q.C))
}

func (m *btMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	for _, j := range m.rows.Touched() {
		out.Emit(int(j), m.rows.Row(int(j)))
	}
	m.q = nil
	m.pool.Put(m)
}

// Projector is the projection job of both MapReduce sketch engines, rsvd's
// and Mahout-PCA's Q and power jobs: P = Yc·B for an in-memory D x k matrix
// B with mean propagation, materialized as one k-wide row per input row.
// Its mappers come from a per-fit pool and project each row into one
// scratch row, which the job's slab store copies on emit.
type Projector struct {
	// P is the N x k projection, refilled by every Run.
	P       *matrix.Dense
	eng     *mapred.Engine
	indexed []IndexedRow
	mean    []float64
	mb      []float64 // Ym·B
	spec    *mapred.DenseSpec
	mappers *parallel.Pool[*projMapper]
}

// NewProjector returns the projection job of indexed centered by mean. P
// and the mappers are made on the first Run.
func NewProjector(eng *mapred.Engine, indexed []IndexedRow, mean []float64) *Projector {
	return &Projector{eng: eng, indexed: indexed, mean: mean}
}

// Run fills P = Yc·B as the job named name.
func (pr *Projector) Run(name string, b *matrix.Dense) error {
	k := b.C
	if pr.P == nil || pr.P.C != k {
		pr.P = matrix.NewDense(len(pr.indexed), k)
		pr.mb = make([]float64, k)
		pr.spec = &mapred.DenseSpec{MinKey: 0, Keys: len(pr.indexed), Width: k}
		var pool *parallel.Pool[*projMapper]
		pool = parallel.NewPool(func() *projMapper {
			return &projMapper{pool: pool, p: make([]float64, k)}
		})
		pr.mappers = pool
	}
	// Ym·B, subtracted from every projected row (mean propagation).
	b.MulVecTInto(pr.mean, pr.mb)
	job := mapred.Job[IndexedRow, int, []float64, []float64]{
		Name: name,
		NewMapper: func(int) mapred.Mapper[IndexedRow, int, []float64] {
			m := pr.mappers.Get()
			m.b, m.mb = b, pr.mb
			return m
		},
		Reduce:      func(_ int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  func(r IndexedRow) int64 { return mapred.BytesOfSparseVec(r.Row) },
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
		Dense:       pr.spec,
	}
	out, err := mapred.Run(pr.eng, job, pr.indexed)
	if err != nil {
		return err
	}
	for i := range pr.indexed {
		v, ok := out[i]
		if !ok {
			return fmt.Errorf("rsvd: %s lost row %d", name, i)
		}
		copy(pr.P.Row(i), v)
	}
	return nil
}

// projMapper emits each input row's projection (Yi − Ym)·B from its one
// scratch row, and puts itself back in its pool from Cleanup.
type projMapper struct {
	pool  *parallel.Pool[*projMapper]
	b     *matrix.Dense
	mb, p []float64
}

func (m *projMapper) Map(rec IndexedRow, out mapred.Emitter[int, []float64]) {
	k := len(m.p)
	clear(m.p)
	rec.Row.MulAdd(m.b, m.p)
	matrix.AXPY(-1, m.mb, m.p)
	out.Emit(rec.Idx, m.p)
	out.AddOps(int64(rec.Row.NNZ()*k + k))
}

func (m *projMapper) Cleanup(mapred.Emitter[int, []float64]) {
	m.b, m.mb = nil, nil
	m.pool.Put(m)
}
