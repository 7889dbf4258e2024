package rsvd

import (
	"fmt"

	"spca/internal/colmean"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// FitMapReduce runs distributed randomized SVD on the MapReduce engine:
// broadcast a seeded Gaussian test matrix Ω, project P = Yc·Ω, orthonormalize
// with a charged QR phase, refine with q QR re-orthonormalized power
// iterations (Q ← QR(Yc·(YcᵀQ))), then take the small SVD of B = YcᵀQ on the
// driver. Unlike the Mahout baseline in internal/ssvd, the B job uses
// in-mapper combining (one k-vector per column per task instead of one per
// non-zero), and every mapper runs on per-task pooled scratch with zero
// steady-state allocations.
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
			return &mrEngine{
				eng: eng, opt: opt, dims: dims, indexed: IndexRows(rows), mean: mean,
				scr: newMRScratch(eng.NumSplits(len(rows))),
			}
		})
}

// mrEngine implements one randomized-SVD sketch round as MapReduce jobs. The
// projection matrix P (N x k), the small matrix B (D x k), and all per-task
// mapper scratch are allocated on the first round and reused afterwards.
type mrEngine struct {
	eng     *mapred.Engine
	opt     Options
	dims    int
	mean    []float64
	indexed []IndexedRow
	scr     *mrScratch
	p       *matrix.Dense // N x k projection, refilled by every project job
	b       *matrix.Dense // D x k, refilled by every B job
}

func (e *mrEngine) Round(round, k int) (*matrix.Dense, []float64, error) {
	cl := e.eng.Cluster
	// Ω: a fresh D x k Gaussian test matrix per round, broadcast to all
	// mappers. Independent of ssvd's draws by stream name, not by offset.
	omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(e.opt.Seed, "rsvd/omega", uint64(round))), e.dims, k)
	mapred.Broadcast(e.eng, "rsvd/omega", mapred.BytesOfDense(omega))

	if err := e.projectJob("rsvd-range", omega); err != nil {
		return nil, nil, err
	}
	q := QRPhase(cl, "rsvd/qr", e.p)

	// Power iterations: Q ← QR(Yc·(YcᵀQ)), re-orthonormalizing after every
	// application so the basis never degenerates (Halko's recommendation).
	for pi := 0; pi < e.opt.PowerIterations; pi++ {
		if err := e.bJob(q); err != nil {
			return nil, nil, err
		}
		mapred.Broadcast(e.eng, "rsvd/b", mapred.BytesOfDense(e.b))
		if err := e.projectJob(fmt.Sprintf("rsvd-power-%d", pi), e.b); err != nil {
			return nil, nil, err
		}
		q = QRPhase(cl, "rsvd/qr", e.p)
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

// projectJob computes P = Yc·B for an in-memory D x k matrix B with mean
// propagation, filling the reused e.p. Each mapper emits one pooled k-vector
// per row — zero allocations once the per-task freelists are warm.
func (e *mrEngine) projectJob(name string, b *matrix.Dense) error {
	k := b.C
	// Ym·B, subtracted from every projected row (mean propagation).
	mb := e.scr.mb(k)
	for j, mj := range e.mean {
		if mj != 0 {
			matrix.AXPY(mj, b.Row(j), mb)
		}
	}
	job := mapred.Job[IndexedRow, int, []float64, []float64]{
		Name: name,
		NewMapper: func(task int) mapred.Mapper[IndexedRow, int, []float64] {
			m := e.scr.proj[task]
			m.reset(k, b, mb) // reset handles fault replays too
			return m
		},
		Reduce:      func(_ int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  func(r IndexedRow) int64 { return mapred.BytesOfSparseVec(r.Row) },
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
		Dense:       e.scr.denseProj(len(e.indexed), k),
	}
	out, err := mapred.Run(e.eng, job, e.indexed)
	if err != nil {
		return err
	}
	if e.p == nil {
		e.p = matrix.NewDense(len(e.indexed), k)
	}
	for i := range e.indexed {
		v, ok := out[i]
		if !ok {
			return fmt.Errorf("rsvd: %s lost row %d", name, i)
		}
		copy(e.p.Row(i), v)
	}
	return nil
}

// bJob computes B = YcᵀQ (D x k) with in-mapper combining: each task folds
// its rows into a column-keyed accumulator map and emits one k-vector per
// touched column in Cleanup — the combining Mahout's Bt job lacks.
func (e *mrEngine) bJob(q *matrix.Dense) error {
	k := q.C
	job := mapred.Job[IndexedRow, int, []float64, []float64]{
		Name: "rsvd-b",
		NewMapper: func(task int) mapred.Mapper[IndexedRow, int, []float64] {
			m := e.scr.bt[task]
			m.reset(k, q)
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
		Dense:       e.scr.denseB(e.dims, k),
	}
	out, err := mapred.Run(e.eng, job, e.indexed)
	if err != nil {
		return err
	}
	if e.b == nil {
		e.b = matrix.NewDense(e.dims, k)
	}
	e.b.Zero()
	for j, v := range out {
		copy(e.b.Row(j), v)
	}
	// Mean propagation on the driver: B = YᵀQ - Ym ⊗ colSum(Q).
	colSum := e.scr.mb(k) // reuse of the k-sized driver buffer is safe here
	for i := 0; i < q.R; i++ {
		matrix.AXPY(1, q.Row(i), colSum)
	}
	for j, mj := range e.mean {
		if mj != 0 {
			matrix.AXPY(-mj, colSum, e.b.Row(j))
		}
	}
	e.eng.Cluster.AddDriverCompute(int64(q.R)*int64(k) + int64(e.dims)*int64(k))
	return nil
}

// mrScratch owns every reused mapper-side buffer, indexed by task.
type mrScratch struct {
	proj  []*projMapper
	bt    []*btMapper
	mbBuf []float64
	// Flat-slab shuffle specs, one stable pointer per job shape so every
	// round reuses the engine's pooled slabs via the cheap same-spec reset.
	projSpec *mapred.DenseSpec
	bSpec    *mapred.DenseSpec
}

// denseProj is the projection job's spec: one k-wide row per input row.
func (s *mrScratch) denseProj(n, k int) *mapred.DenseSpec {
	if s.projSpec == nil || s.projSpec.Keys != n || s.projSpec.Width != k {
		s.projSpec = &mapred.DenseSpec{MinKey: 0, Keys: n, Width: k}
	}
	return s.projSpec
}

// denseB is the Bᵀ job's spec: one k-wide row per touched column.
func (s *mrScratch) denseB(dims, k int) *mapred.DenseSpec {
	if s.bSpec == nil || s.bSpec.Keys != dims || s.bSpec.Width != k {
		s.bSpec = &mapred.DenseSpec{MinKey: 0, Keys: dims, Width: k}
	}
	return s.bSpec
}

func newMRScratch(tasks int) *mrScratch {
	s := &mrScratch{proj: make([]*projMapper, tasks), bt: make([]*btMapper, tasks)}
	for i := range s.proj {
		s.proj[i] = &projMapper{}
		s.bt[i] = &btMapper{}
	}
	return s
}

// mb returns the zeroed driver-side k-vector.
func (s *mrScratch) mb(k int) []float64 {
	if cap(s.mbBuf) < k {
		s.mbBuf = make([]float64, k)
	}
	s.mbBuf = s.mbBuf[:k]
	for i := range s.mbBuf {
		s.mbBuf[i] = 0
	}
	return s.mbBuf
}

// projMapper emits one pooled k-vector per input row. reset reclaims every
// vector handed out by the previous job (or a failed attempt of this one).
type projMapper struct {
	k    int
	b    *matrix.Dense
	mb   []float64
	free [][]float64
	out  [][]float64
}

func (m *projMapper) reset(k int, b *matrix.Dense, mb []float64) {
	if m.k != k {
		m.free, m.out, m.k = nil, nil, k
	}
	m.free = append(m.free, m.out...)
	m.out = m.out[:0]
	m.b, m.mb = b, mb
}

func (m *projMapper) vec() []float64 {
	var v []float64
	if n := len(m.free); n > 0 {
		v = m.free[n-1]
		m.free = m.free[:n-1]
		for i := range v {
			v[i] = 0
		}
	} else {
		v = make([]float64, m.k)
	}
	m.out = append(m.out, v)
	return v
}

func (m *projMapper) Map(rec IndexedRow, out mapred.Emitter[int, []float64]) {
	p := m.vec()
	for t, j := range rec.Row.Indices {
		matrix.AXPY(rec.Row.Values[t], m.b.Row(j), p)
	}
	matrix.AXPY(-1, m.mb, p)
	out.Emit(rec.Idx, p)
	out.AddOps(int64(rec.Row.NNZ()*m.k + m.k))
}

func (m *projMapper) Cleanup(mapred.Emitter[int, []float64]) {}

// btMapper folds B-contributions into a column-keyed map (in-mapper
// combining) and emits once per touched column in Cleanup. Emission order is
// the map's, which is fine: every column is emitted at most once per task,
// and the reducer's value list is ordered by task, so the fold stays
// deterministic.
type btMapper struct {
	k    int
	q    *matrix.Dense
	bt   map[int][]float64
	free [][]float64
}

func (m *btMapper) reset(k int, q *matrix.Dense) {
	if m.k != k {
		m.bt, m.free, m.k = nil, nil, k
	}
	if m.bt == nil {
		m.bt = map[int][]float64{}
	}
	for j, v := range m.bt {
		m.free = append(m.free, v)
		delete(m.bt, j)
	}
	m.q = q
}

func (m *btMapper) vec() []float64 {
	if n := len(m.free); n > 0 {
		v := m.free[n-1]
		m.free = m.free[:n-1]
		for i := range v {
			v[i] = 0
		}
		return v
	}
	return make([]float64, m.k)
}

func (m *btMapper) Map(rec IndexedRow, out mapred.Emitter[int, []float64]) {
	qi := m.q.Row(rec.Idx)
	for t, j := range rec.Row.Indices {
		v := m.bt[j]
		if v == nil {
			v = m.vec()
			m.bt[j] = v
		}
		matrix.AXPY(rec.Row.Values[t], qi, v)
	}
	out.AddOps(int64(rec.Row.NNZ() * m.k))
}

func (m *btMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	for j, v := range m.bt {
		out.Emit(j, v)
	}
}
