package ppca

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/driver"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// Special composite-key values for the consolidated YtXJob (§4.1 uses a
// composite key to route all XtX partials to one reducer while YtX rows
// spread across reducers).
const (
	keyXtX  = -1
	keySumX = -2
	keySS3  = -3
	keyMean = -4
	keyFro  = -5
)

// FitMapReduce runs sPCA on the MapReduce engine (Algorithm 4). rows are the
// input matrix records; dims is D. The optimization switches in opt select
// between the full sPCA jobs and the unoptimized baselines of Table 3.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := eng.Cluster
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitMapReduce", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	run := driver.New(opt.Options, cl, eng)
	if err := run.Resume(len(rows), dims, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	var em *emDriver
	if snap := opt.Resume; snap != nil {
		// The mean/Frobenius jobs (and SmartGuess) were already paid for by
		// the crashed incarnation and live in the snapshot.
		em = newEMDriver(opt, len(rows), dims, snap.Mean, snap.SS1)
	} else {
		// meanJob + FnormJob run once before the loop (Algorithm 4 lines 3-4).
		mean, err := meanJob(eng, rows, dims)
		if err != nil {
			return nil, err
		}
		ss1, err := fnormJob(eng, rows, mean, opt.EfficientFrobenius)
		if err != nil {
			return nil, err
		}
		em = newEMDriver(opt, len(rows), dims, mean, ss1)
		if opt.SmartGuess {
			if err := smartGuessMapReduce(eng, rows, dims, opt, em); err != nil {
				return nil, fmt.Errorf("ppca: smart guess: %w", err)
			}
		}
	}

	// Per-task mapper scratch plus the driver-side job sums, allocated once
	// and recycled every iteration.
	return em.fit(run, &mrEngine{
		eng: eng, rows: rows, dims: dims, opt: opt,
		scr:    newMRScratch(eng.NumSplits(len(rows)), em.d, dims),
		sums:   newJobSums(dims, em.d),
		y:      sparseFromRows(rows, dims),
		sample: sampleIdx(len(rows), opt.sampleRows(), opt.Seed),
	})
}

// mrEngine adapts the MapReduce jobs to the shared guarded EM step.
type mrEngine struct {
	eng    *mapred.Engine
	rows   []matrix.SparseVector
	dims   int
	opt    Options
	scr    *mrScratch
	sums   jobSums
	y      *matrix.Sparse
	sample []int
}

func (e *mrEngine) prepared(em *emDriver) {
	// Ship CM (and later C) to every node, like Hadoop's distributed cache.
	broadcast(e.eng.Cluster, "ytx/cache", mapred.BytesOfDense(em.cm))
}

func (e *mrEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return ytxJob(e.eng, e.rows, em, e.opt, e.scr, e.sums)
	}
	return unoptimizedPasses(e.eng, e.rows, e.dims, em, e.opt)
}

func (e *mrEngine) solved(em *emDriver, cNew *matrix.Dense) {
	// Driver-side small-matrix work: M, M⁻¹, the solve, ss2.
	d := int64(e.opt.Components)
	e.eng.Cluster.AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	broadcast(e.eng.Cluster, "ss3/cache", mapred.BytesOfDense(cNew))
}

func (e *mrEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return ss3Job(e.eng, e.rows, em, cNew, e.opt, e.scr)
}

func (e *mrEngine) reconErr(em *emDriver) float64 { return em.reconError(e.y, e.sample) }

// broadcast charges shipping driver state to every worker node.
func broadcast(cl *cluster.Cluster, name string, bytes int64) {
	cl.RunPhase(cluster.PhaseStats{
		Name:         name,
		ShuffleBytes: bytes * int64(cl.Config().Nodes),
	})
}

// meanJob computes the column means with one MapReduce job. Mappers keep a
// sparse in-memory partial (stateful combiner) and flush it in Cleanup.
func meanJob(eng *mapred.Engine, rows []matrix.SparseVector, dims int) ([]float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "meanJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &meanMapper{}
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
		// Keys are the column range plus the keyMean row-count slot below it.
		Dense: &mapred.DenseSpec{MinKey: keyMean, Keys: dims - keyMean, Width: 1},
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	count := out[keyMean]
	if count == 0 {
		return nil, fmt.Errorf("ppca: meanJob produced no row count")
	}
	mean := make([]float64, dims)
	for k, v := range out {
		if k >= 0 {
			mean[k] = v / count
		}
	}
	return mean, nil
}

// meanMapper holds its per-column partial sums as a flat array plus a
// first-touch list rather than a hash map: columns hit by any row of the task
// index directly into partial, and Cleanup emits exactly the touched set (so
// the shuffle never carries zero entries for columns the task never saw).
type meanMapper struct {
	partial []float64
	seen    []bool
	touched []int32
	count   float64
}

func (m *meanMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	if len(m.partial) < row.Len {
		p := make([]float64, row.Len)
		copy(p, m.partial)
		s := make([]bool, row.Len)
		copy(s, m.seen)
		t := make([]int32, len(m.touched), row.Len)
		copy(t, m.touched)
		m.partial, m.seen, m.touched = p, s, t
	}
	for k, j := range row.Indices {
		if !m.seen[j] {
			m.seen[j] = true
			m.touched = append(m.touched, int32(j))
		}
		m.partial[j] += row.Values[k]
	}
	m.count++
	out.AddOps(int64(row.NNZ()))
}

func (m *meanMapper) Cleanup(out mapred.Emitter[int, float64]) {
	for _, j := range m.touched {
		out.Emit(int(j), m.partial[j])
	}
	out.Emit(keyMean, m.count)
}

// fnormJob computes ||Y - Ym||²_F. With efficient=true it uses the
// sparsity-preserving Algorithm 3; otherwise the row-densifying Algorithm 2.
func fnormJob(eng *mapred.Engine, rows []matrix.SparseVector, mean []float64, efficient bool) (float64, error) {
	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "FnormJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &fnormMapper{mean: mean, msum: msum, efficient: efficient}
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
		Dense:      &mapred.DenseSpec{MinKey: keyFro, Keys: 1, Width: 1},
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return 0, err
	}
	return out[keyFro], nil
}

type fnormMapper struct {
	mean      []float64
	msum      float64
	efficient bool
	sum       float64
	dense     []float64 // densify buffer, grown to the widest row seen
}

func (m *fnormMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	if m.efficient {
		// Algorithm 3: msum covers the all-zero row; fix up non-zeros.
		s := m.msum
		for k, j := range row.Indices {
			v := row.Values[k]
			d := v - m.mean[j]
			s += d*d - m.mean[j]*m.mean[j]
		}
		m.sum += s
		out.AddOps(int64(2 * row.NNZ()))
		return
	}
	// Algorithm 2: densify the row, then iterate all D entries. The buffer is
	// mapper state sized to the widest row seen, not a per-row allocation.
	if cap(m.dense) < row.Len {
		m.dense = make([]float64, row.Len)
	}
	dense := m.dense[:row.Len]
	for j := range dense {
		dense[j] = 0
	}
	for k, j := range row.Indices {
		dense[j] = row.Values[k]
	}
	var s float64
	for j, v := range dense {
		dv := v - m.mean[j]
		s += dv * dv
	}
	m.sum += s
	out.AddOps(int64(2 * row.Len))
}

func (m *fnormMapper) Cleanup(out mapred.Emitter[int, float64]) { out.Emit(keyFro, m.sum) }

// ytxJob is the consolidated distributed job of Algorithm 4: it recomputes X
// row by row and produces YtX, XtX, and ΣX in a single pass. Mappers hold
// the partial matrices in memory (the stateful combiner of §4.1) and flush
// them once per task, keyed so all XtX partials meet at one reducer.
func ytxJob(eng *mapred.Engine, rows []matrix.SparseVector, em *emDriver, opt Options, scr *mrScratch, sums jobSums) (jobSums, error) {
	d := em.d
	job := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "YtXJob",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			if opt.StatefulCombiner {
				return &ytxMapper{em: em, meanProp: opt.MeanPropagation, d: d, scr: scr.ytxTask(task, d)}
			}
			return &ytxNaiveMapper{em: em, meanProp: opt.MeanPropagation, d: d}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	if !opt.StatefulCombiner {
		// Without in-mapper combining every per-row partial is mapper
		// output that must be spilled and shuffled (the §4.1 problem:
		// "each mapper generate[s] an entire dense matrix after processing
		// each sparse row").
		job.Combine = nil
	} else {
		// The combining job opts into the flat-slab shuffle; the naive
		// (combiner-less) ablation stays generic because it emits duplicate
		// keys per task.
		job.Dense = scr.ytxSpec
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return jobSums{}, err
	}
	return assembleSumsInto(out, sums)
}

// mrScratch owns the per-map-task mapper scratch of one FitMapReduce call,
// indexed by task id and reused across all EM iterations. Distinct tasks
// write distinct slots of a pre-sized slice, so concurrent map tasks never
// race; retried attempts of one task run sequentially in one goroutine and
// start from a reset.
type mrScratch struct {
	ytx []*ytxTaskScratch
	ss3 []*ss3TaskScratch
	// DenseSpecs of the per-iteration jobs, built once per fit: a stable
	// spec pointer lets the engine's slab pool take its cheap same-spec
	// reset path on every EM iteration. The consolidated YtXJob's key range
	// is [keySumX, dims) of d-wide rows, with the single d²-wide XtX partial
	// as a wide key; the ss3Job emits one scalar.
	ytxSpec *mapred.DenseSpec
	ss3Spec *mapred.DenseSpec
}

func newMRScratch(tasks, d, dims int) *mrScratch {
	sc := &mrScratch{
		ytx: make([]*ytxTaskScratch, tasks),
		ss3: make([]*ss3TaskScratch, tasks),
		ytxSpec: &mapred.DenseSpec{
			MinKey:   keySumX,
			Keys:     dims - keySumX,
			Width:    d,
			WideKeys: map[int]int{keyXtX: d * d},
		},
		ss3Spec: &mapred.DenseSpec{MinKey: keySS3, Keys: 1, Width: 1},
	}
	// Batch-carve every task's fixed-size buffers from shared arenas: the
	// whole fit's scratch costs a handful of allocations instead of several
	// per task. The YtX row slabs themselves still grow on demand (bounded by
	// dims·d), since their size depends on the columns a task touches.
	ytxBlock := make([]ytxTaskScratch, tasks)
	ss3Block := make([]ss3TaskScratch, tasks)
	floats := make([]float64, tasks*(d*d+4*d))
	offs := make([]int32, tasks*2*dims)
	carve := func(n int) []float64 {
		v := floats[:n:n]
		floats = floats[n:]
		return v
	}
	for t := 0; t < tasks; t++ {
		y := &ytxBlock[t]
		y.d = d
		y.xtx = carve(d * d)
		y.sumX = carve(d)
		y.xi = carve(d)
		y.off = offs[:dims:dims]
		y.touched = offs[dims : dims : 2*dims]
		offs = offs[2*dims:]
		for i := range y.off {
			y.off[i] = -1
		}
		y.maxData = dims * d
		sc.ytx[t] = y

		s := &ss3Block[t]
		s.xi = carve(d)
		s.ct = carve(d)
		sc.ss3[t] = s
	}
	return sc
}

// ytxTask returns task's YtXJob scratch, reset and ready for a new attempt.
func (sc *mrScratch) ytxTask(task, d int) *ytxTaskScratch {
	s := sc.ytx[task]
	if s == nil {
		s = newYtxTaskScratch(d)
		sc.ytx[task] = s
	}
	s.reset()
	return s
}

// ss3Task returns task's ss3Job scratch (no reset needed; see ss3TaskScratch).
func (sc *mrScratch) ss3Task(task, d int) *ss3TaskScratch {
	s := sc.ss3[task]
	if s == nil {
		s = newSS3TaskScratch(d)
		sc.ss3[task] = s
	}
	return s
}

// ytxNaiveMapper emits one partial per non-zero per row with no in-mapper
// state — the baseline the stateful-combiner technique replaces.
type ytxNaiveMapper struct {
	em       *emDriver
	meanProp bool
	d        int
	xi       []float64
}

func (m *ytxNaiveMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	if m.xi == nil {
		m.xi = make([]float64, m.d)
	}
	if !m.meanProp {
		row = densifyCentered(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, m.xi)
	for k, j := range row.Indices {
		p := make([]float64, m.d)
		matrix.AXPY(row.Values[k], m.xi, p)
		out.Emit(j, p)
	}
	xtx := make([]float64, m.d*m.d)
	for a := 0; a < m.d; a++ {
		va := m.xi[a]
		base := a * m.d
		for b := 0; b < m.d; b++ {
			xtx[base+b] = va * m.xi[b]
		}
	}
	out.Emit(keyXtX, xtx)
	sum := make([]float64, m.d)
	copy(sum, m.xi)
	out.Emit(keySumX, sum)
	out.AddOps(int64(2*row.NNZ()*m.d + m.d*m.d + m.d))
}

func (m *ytxNaiveMapper) Cleanup(out mapred.Emitter[int, []float64]) {}

// newJobSums allocates a zeroed jobSums of the given shape.
func newJobSums(dims, d int) jobSums {
	return jobSums{
		ytx:  matrix.NewDense(dims, d),
		xtx:  matrix.NewDense(d, d),
		sumX: make([]float64, d),
	}
}

// assembleSums rebuilds the jobSums matrices from reducer output.
func assembleSums(out map[int][]float64, dims, d int) (jobSums, error) {
	return assembleSumsInto(out, newJobSums(dims, d))
}

// assembleSumsInto zeroes sums and refills it from reducer output, so a
// driver-held jobSums can be recycled across iterations.
func assembleSumsInto(out map[int][]float64, sums jobSums) (jobSums, error) {
	sums.ytx.Zero()
	sums.xtx.Zero()
	for i := range sums.sumX {
		sums.sumX[i] = 0
	}
	for k, v := range out {
		switch {
		case k >= 0:
			copy(sums.ytx.Row(k), v)
		case k == keyXtX:
			copy(sums.xtx.Data, v)
		case k == keySumX:
			copy(sums.sumX, v)
		default:
			return jobSums{}, fmt.Errorf("ppca: unexpected YtXJob key %d", k)
		}
	}
	return sums, nil
}

func sumVec(a, b []float64) []float64 {
	matrix.AXPY(1, b, a)
	return a
}

func reduceSumVec(k int, vs [][]float64, o mapred.Ops) []float64 {
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		matrix.AXPY(1, v, out)
		o.AddOps(int64(len(v)))
	}
	return out
}

// ytxTaskScratch is the reusable in-mapper state of one YtXJob map task. The
// engine retains emitted slices only until Run returns and the fit loop runs
// jobs strictly sequentially, so the same buffers can back every iteration's
// mapper. YtX partial rows live packed in one flat slab (data + per-column
// offset table) in first-touch order, mirroring the engine's shuffle slabs:
// reset truncates the slab in O(touched) and every iteration after the first
// runs the mapper without a single row allocation.
type ytxTaskScratch struct {
	d       int
	data    []float64 // packed d-wide YtX partial rows, claim order
	off     []int32   // per column: offset into data, -1 while untouched
	touched []int32   // columns claimed this attempt, claim order
	maxData int       // growth bound (dims·d) when the fit's dims are known
	xtx     []float64
	sumX    []float64
	xi      []float64
	idx     []int // densify scratch for the no-mean-propagation ablation
	vals    []float64
}

func newYtxTaskScratch(d int) *ytxTaskScratch {
	return &ytxTaskScratch{
		d:    d,
		xtx:  make([]float64, d*d),
		sumX: make([]float64, d),
		xi:   make([]float64, d),
	}
}

// reset prepares the scratch for a fresh attempt: touched columns revert to
// untouched and the row slab is truncated, keeping its capacity (the offset
// table holds only live keys, so a task's shuffle output — and hence the byte
// accounting — never includes stale zero rows).
func (s *ytxTaskScratch) reset() {
	for _, j := range s.touched {
		s.off[j] = -1
	}
	s.touched = s.touched[:0]
	s.data = s.data[:0]
	for i := range s.xtx {
		s.xtx[i] = 0
	}
	for i := range s.sumX {
		s.sumX[i] = 0
	}
}

// row returns column j's partial row, claiming a zeroed d-vector from the
// slab on first touch. The returned slice is only valid until the next claim
// (growth may move the backing array); use it immediately.
func (s *ytxTaskScratch) row(j int) []float64 {
	if j >= len(s.off) {
		grown := make([]int32, max(2*len(s.off), j+1, 64))
		copy(grown, s.off)
		for i := len(s.off); i < len(grown); i++ {
			grown[i] = -1
		}
		s.off = grown
	}
	if o := s.off[j]; o >= 0 {
		return s.data[o : int(o)+s.d]
	}
	o := len(s.data)
	if o+s.d <= cap(s.data) {
		s.data = s.data[: o+s.d : cap(s.data)]
		clear(s.data[o:])
	} else {
		c := max(4*cap(s.data), o+s.d, 1024)
		if s.maxData > 0 && c > s.maxData {
			c = max(s.maxData, o+s.d)
		}
		grown := make([]float64, o+s.d, c)
		copy(grown, s.data)
		s.data = grown
	}
	s.off[j] = int32(o)
	s.touched = append(s.touched, int32(j))
	return s.data[o:]
}

// densify is densifyCentered on task-held buffers.
func (s *ytxTaskScratch) densify(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	if cap(s.idx) < row.Len {
		s.idx = make([]int, row.Len)
		s.vals = make([]float64, row.Len)
	}
	return matrix.DensifyCenteredInto(row, mean, s.idx[:row.Len], s.vals[:row.Len])
}

type ytxMapper struct {
	em       *emDriver
	meanProp bool
	d        int
	scr      *ytxTaskScratch
}

func (m *ytxMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	s := m.scr
	if !m.meanProp {
		row = s.densify(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, s.xi)
	nnz := row.NNZ()
	// YtX partial: only rows of Y's non-zeros are touched (for the
	// mean-propagated path this is what keeps the partial sparse).
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], s.xi, s.row(j))
	}
	for a := 0; a < m.d; a++ {
		va := s.xi[a]
		if va == 0 {
			continue
		}
		base := a * m.d
		for b := 0; b < m.d; b++ {
			s.xtx[base+b] += va * s.xi[b]
		}
	}
	matrix.AXPY(1, s.xi, s.sumX)
	out.AddOps(int64(2*nnz*m.d + m.d*m.d + m.d))
}

func (m *ytxMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	// Each key is emitted exactly once per task, so the engine's in-place
	// combiner merge never mutates these pooled slices. No further claims
	// happen after this point, so the slab rows are stable.
	s := m.scr
	for _, j := range s.touched {
		o := s.off[j]
		out.Emit(int(j), s.data[o:int(o)+s.d:int(o)+s.d])
	}
	out.Emit(keyXtX, s.xtx)
	out.Emit(keySumX, s.sumX)
}

// computeRowLatent fills xi with the centered latent row. With mean
// propagation the Xm correction applies; without it the row is already
// centered and dense, so no correction is needed.
func computeRowLatent(row matrix.SparseVector, em *emDriver, meanProp bool, xi []float64) {
	if meanProp {
		for k := range xi {
			xi[k] = -em.xm[k]
		}
	} else {
		for k := range xi {
			xi[k] = 0
		}
	}
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], em.cm.Row(j), xi)
	}
}

// densifyCentered materializes Yi - Ym as a fully dense "sparse" vector —
// exactly the cost the mean-propagation optimization avoids.
func densifyCentered(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	idx := make([]int, row.Len)
	vals := make([]float64, row.Len)
	for j := range idx {
		idx[j] = j
		vals[j] = -mean[j]
	}
	for k, j := range row.Indices {
		vals[j] += row.Values[k]
	}
	return matrix.SparseVector{Len: row.Len, Indices: idx, Values: vals}
}

// ss3Job recomputes X on demand and accumulates Σ Xi_c·(Cᵀ·Yiᵀ) using the
// associativity trick: multiply Cᵀ with the sparse Yiᵀ first (§4.1, Eq. 3).
func ss3Job(eng *mapred.Engine, rows []matrix.SparseVector, em *emDriver, cNew *matrix.Dense, opt Options, scr *mrScratch) (float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "ss3Job",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &ss3Mapper{
				em: em, c: cNew, meanProp: opt.MeanPropagation,
				assoc: opt.AssociativeSS3, d: em.d,
				scr: scr.ss3Task(task, em.d),
			}
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
		Dense:      scr.ss3Spec,
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return 0, err
	}
	return out[keySS3], nil
}

// ss3TaskScratch is the reusable per-task scratch of the ss3Job mappers. The
// job emits only scalars, so nothing here is ever retained by the engine and
// no reset between attempts is needed: every buffer is fully overwritten per
// row (or, for ct, zeroed in the loop).
type ss3TaskScratch struct {
	xi   []float64
	ct   []float64
	xc   []float64 // D-length scratch for the non-associative order
	idx  []int     // densify scratch for the no-mean-propagation ablation
	vals []float64
}

func newSS3TaskScratch(d int) *ss3TaskScratch {
	return &ss3TaskScratch{xi: make([]float64, d), ct: make([]float64, d)}
}

func (s *ss3TaskScratch) densify(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	if cap(s.idx) < row.Len {
		s.idx = make([]int, row.Len)
		s.vals = make([]float64, row.Len)
	}
	return matrix.DensifyCenteredInto(row, mean, s.idx[:row.Len], s.vals[:row.Len])
}

type ss3Mapper struct {
	em       *emDriver
	c        *matrix.Dense
	meanProp bool
	assoc    bool
	d        int

	sum float64
	scr *ss3TaskScratch
}

func (m *ss3Mapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	s := m.scr
	if !m.meanProp {
		row = s.densify(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, s.xi)
	if m.assoc {
		// Eq. 3 with associativity: ct = Cᵀ·Yiᵀ touches only non-zeros.
		for k := range s.ct {
			s.ct[k] = 0
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], m.c.Row(j), s.ct)
		}
		m.sum += matrix.Dot(s.xi, s.ct)
		out.AddOps(int64(row.NNZ()*m.d + row.NNZ()*m.d + m.d))
		return
	}
	// Default order: (Xi·Cᵀ) is a dense D-vector; "most of the work ...
	// will be wasted since most of these elements will be multiplied with
	// zero elements" (§4.1).
	if s.xc == nil {
		s.xc = make([]float64, m.c.R)
	}
	denseXC(s.xi, m.c, s.xc)
	var t float64
	for k, j := range row.Indices {
		t += s.xc[j] * row.Values[k]
	}
	m.sum += t
	out.AddOps(int64(row.NNZ()*m.d + m.c.R*m.d + row.NNZ()))
}

func (m *ss3Mapper) Cleanup(out mapred.Emitter[int, float64]) { out.Emit(keySS3, m.sum) }

// pairYX is the record type of the unoptimized pipeline, where the
// materialized X must be read back alongside Y.
type pairYX struct {
	y matrix.SparseVector
	x []float64
}

// unoptimizedPasses implements the naive job graph of Figure 1: a dedicated
// job materializes X as intermediate data, and separate XtX and YtX jobs
// read it back — tracing the intermediate-data cost sPCA's §3.2 eliminates.
func unoptimizedPasses(eng *mapred.Engine, rows []matrix.SparseVector, dims int, em *emDriver, opt Options) (jobSums, error) {
	d := em.d
	// Job 1: compute and materialize X (one emitted record per input row).
	xJob := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "XJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			i := -1
			return mapred.MapperFunc[matrix.SparseVector, int, []float64](
				func(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
					i++
					if !opt.MeanPropagation {
						row = densifyCentered(row, em.mean)
					}
					xi := make([]float64, d)
					computeRowLatent(row, em, opt.MeanPropagation, xi)
					out.Emit(i, xi) // not combinable: every row is distinct
					out.AddOps(int64(row.NNZ() * d))
				})
		},
		Reduce:      func(k int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	// The per-task row counter above is only unique within a task, so key
	// collisions across tasks would corrupt X. Run the job with one split,
	// which also mirrors how expensive the naive pipeline is to coordinate.
	savedSplits := eng.Splits
	eng.Splits = 1
	xOut, err := mapred.Run(eng, xJob, rows)
	eng.Splits = savedSplits
	if err != nil {
		return jobSums{}, err
	}

	pairs := make([]pairYX, len(rows))
	for i, row := range rows {
		pairs[i] = pairYX{y: row, x: xOut[i]}
	}
	pairBytes := func(p pairYX) int64 {
		return mapred.BytesOfSparseVec(p.y) + mapred.BytesOfVec(p.x)
	}

	// Job 2: XtX (+ ΣX) from the stored X.
	xtxJob := mapred.Job[pairYX, int, []float64, []float64]{
		Name: "XtXJob",
		NewMapper: func(int) mapred.Mapper[pairYX, int, []float64] {
			return &xtxMapper{d: d}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  pairBytes,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	xtxOut, err := mapred.Run(eng, xtxJob, pairs)
	if err != nil {
		return jobSums{}, err
	}

	// Job 3: YtX from Y joined with the stored X.
	ytxJob := mapred.Job[pairYX, int, []float64, []float64]{
		Name: "YtXJoinJob",
		NewMapper: func(int) mapred.Mapper[pairYX, int, []float64] {
			return &ytxJoinMapper{d: d, meanProp: opt.MeanPropagation, mean: em.mean}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  pairBytes,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	ytxOut, err := mapred.Run(eng, ytxJob, pairs)
	if err != nil {
		return jobSums{}, err
	}
	for k, v := range xtxOut {
		ytxOut[k] = v
	}
	return assembleSums(ytxOut, dims, d)
}

type xtxMapper struct {
	d    int
	xtx  []float64
	sumX []float64
}

func (m *xtxMapper) Map(p pairYX, out mapred.Emitter[int, []float64]) {
	if m.xtx == nil {
		m.xtx = make([]float64, m.d*m.d)
		m.sumX = make([]float64, m.d)
	}
	for a := 0; a < m.d; a++ {
		va := p.x[a]
		base := a * m.d
		for b := 0; b < m.d; b++ {
			m.xtx[base+b] += va * p.x[b]
		}
	}
	matrix.AXPY(1, p.x, m.sumX)
	out.AddOps(int64(m.d*m.d + m.d))
}

func (m *xtxMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	if m.xtx == nil {
		return
	}
	out.Emit(keyXtX, m.xtx)
	out.Emit(keySumX, m.sumX)
}

type ytxJoinMapper struct {
	d        int
	meanProp bool
	mean     []float64
	ytx      map[int][]float64
}

func (m *ytxJoinMapper) Map(p pairYX, out mapred.Emitter[int, []float64]) {
	if m.ytx == nil {
		m.ytx = make(map[int][]float64)
	}
	row := p.y
	if !m.meanProp {
		row = densifyCentered(row, m.mean)
	}
	for k, j := range row.Indices {
		part := m.ytx[j]
		if part == nil {
			part = make([]float64, m.d)
			m.ytx[j] = part
		}
		matrix.AXPY(row.Values[k], p.x, part)
	}
	out.AddOps(int64(row.NNZ() * m.d))
}

func (m *ytxJoinMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	for j, p := range m.ytx {
		out.Emit(j, p)
	}
}

// smartGuessMapReduce seeds em from a local fit on a row sample; the sample
// fit's cost is charged to the driver (it is small by construction).
func smartGuessMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options, em *emDriver) error {
	n := smartGuessSize(opt, len(rows))
	if n >= len(rows) {
		return nil
	}
	sub := sparseFromRows(rows, dims)
	sample := sampleSparseRows(sub, n, opt.Seed+0x5A)
	subOpt := opt
	subOpt.SmartGuess = false
	subOpt.TargetAccuracy = 0
	subOpt.IdealError = 0
	subOpt.MaxIter = 5
	res, err := FitLocal(sample, subOpt)
	if err != nil {
		return err
	}
	// Charge the sample fit: ~5 iterations x (2·nnz·d) on one driver core.
	eng.Cluster.AddDriverCompute(int64(subOpt.MaxIter) * 2 * int64(sample.NNZ()) * int64(opt.Components))
	em.c = res.Components
	em.ss = res.SS
	return nil
}

// sparseFromRows reassembles a CSR matrix from engine records.
func sparseFromRows(rows []matrix.SparseVector, dims int) *matrix.Sparse {
	b := matrix.NewSparseBuilder(dims)
	for _, r := range rows {
		b.AddRow(r.Indices, r.Values)
	}
	return b.Build()
}
