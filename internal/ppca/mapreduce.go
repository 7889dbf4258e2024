package ppca

import (
	"fmt"
	"slices"

	"spca/internal/accuracy"
	"spca/internal/colmean"
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
	run := driver.New("spca-mapreduce", opt.Options, cl, eng)
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
		mean, err := colmean.MapReduce(eng, "meanJob", rows, dims)
		if err != nil {
			return nil, err
		}
		ss1, err := fnormJob(eng, rows, mean, opt.EfficientFrobenius)
		if err != nil {
			return nil, err
		}
		em = newEMDriver(opt, len(rows), dims, mean, ss1)
		if opt.SmartGuess {
			if err := smartGuess(len(rows), dims, rowOf(rows), opt, em, cl); err != nil {
				return nil, fmt.Errorf("ppca: smart guess: %w", err)
			}
		}
	}

	// Per-task partials, shared by the YtX and ss3 jobs, plus the driver-side
	// job sums, allocated once and recycled every iteration.
	return em.fit(run, &mrEngine{
		eng: eng, rows: rows, dims: dims, opt: opt,
		parts: newPartials(eng.NumSplits(len(rows)), em.d, dims),
		// A stable spec pointer per job lets the engine's slab pool take its
		// cheap same-spec reset path every iteration. The YtXJob's keys are
		// [keySumX, dims) of d-wide rows, with the d²-wide XtX partial as a
		// wide key; the ss3Job emits one scalar.
		ytxSpec: &mapred.DenseSpec{
			MinKey: keySumX, Keys: dims - keySumX, Width: em.d,
			WideKeys: map[int]int{keyXtX: em.d * em.d},
		},
		ss3Spec: &mapred.DenseSpec{MinKey: keySS3, Keys: 1, Width: 1},
		sums:    newJobSums(dims, em.d),
	}, accuracy.Draw(rows, dims, accuracy.Seed(opt.Seed)))
}

// mrEngine adapts the MapReduce jobs to the shared guarded EM step.
type mrEngine struct {
	eng              *mapred.Engine
	rows             []matrix.SparseVector
	dims             int
	opt              Options
	parts            []*partial // per map task
	ytxSpec, ss3Spec *mapred.DenseSpec
	sums             jobSums
}

func (e *mrEngine) prepared(em *emDriver) {
	// Ship CM (and later C) to every node, like Hadoop's distributed cache.
	mapred.Broadcast(e.eng, "ytx/cache", mapred.BytesOfDense(em.cm))
}

func (e *mrEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return ytxJob(e, em)
	}
	return unoptimizedPasses(e.eng, e.rows, e.dims, em, e.opt)
}

func (e *mrEngine) solved(em *emDriver, cNew *matrix.Dense) {
	// Driver-side small-matrix work: M, M⁻¹, the solve, ss2.
	d := int64(e.opt.Components)
	e.eng.Cluster.AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	mapred.Broadcast(e.eng, "ss3/cache", mapred.BytesOfDense(cNew))
}

func (e *mrEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return ss3Job(e, em, cNew)
}

// fnormJob computes ||Y - Ym||²_F. With efficient=true it uses the
// sparsity-preserving Algorithm 3; otherwise the row-densifying Algorithm 2.
func fnormJob(eng *mapred.Engine, rows []matrix.SparseVector, mean []float64, efficient bool) (float64, error) {
	msum := matrix.Dot(mean, mean)
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "FnormJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &fnormPartial{mean: mean, msum: msum, efficient: efficient}
		},
		Combine:    sumFloat,
		Reduce:     reduceSumFloat,
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

// ytxJob is the consolidated distributed job of Algorithm 4: it recomputes X
// row by row and produces YtX, XtX, and ΣX in a single pass. Mappers hold
// the partial matrices in memory (the stateful combiner of §4.1) and flush
// them once per task, keyed so all XtX partials meet at one reducer.
func ytxJob(e *mrEngine, em *emDriver) (jobSums, error) {
	meanProp := e.opt.MeanPropagation
	job := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "YtXJob",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			if e.opt.StatefulCombiner {
				p := e.parts[task]
				p.reset()
				return &ytxMapper{em: em, meanProp: meanProp, p: p}
			}
			return &ytxNaiveMapper{em: em, meanProp: meanProp, p: newPartial(em.d, e.dims)}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	if !e.opt.StatefulCombiner {
		// Without in-mapper combining every per-row partial is mapper
		// output that must be spilled and shuffled (the §4.1 problem:
		// "each mapper generate[s] an entire dense matrix after processing
		// each sparse row").
		job.Combine = nil
	} else {
		// The combining job opts into the flat-slab shuffle; the naive
		// (combiner-less) ablation stays generic because it emits duplicate
		// keys per task.
		job.Dense = e.ytxSpec
	}
	out, err := mapred.Run(e.eng, job, e.rows)
	if err != nil {
		return jobSums{}, err
	}
	return assembleSumsInto(out, e.sums)
}

// ytxNaiveMapper emits one partial per non-zero per row with no in-mapper
// state — the baseline the stateful-combiner technique replaces. Its partial
// holds one row at a time, and every emission is a fresh copy.
type ytxNaiveMapper struct {
	em       *emDriver
	meanProp bool
	p        *partial
}

func (m *ytxNaiveMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	p := m.p
	p.reset()
	out.AddOps(p.add(p.latent(row, m.em, m.meanProp), p.xi))
	for _, j := range p.touched {
		out.Emit(int(j), slices.Clone(p.row(int(j))))
	}
	out.Emit(keyXtX, slices.Clone(p.xtx.Data))
	out.Emit(keySumX, slices.Clone(p.sumX))
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

// assembleSumsInto zeroes sums and refills it from reducer output, so a
// driver-held jobSums can be recycled across iterations. The mappers emit
// XtX with only its upper triangle filled; it is mirrored here.
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
	matrix.MirrorUpper(sums.xtx)
	return sums, nil
}

func sumFloat(a, b float64) float64 { return a + b }

func reduceSumFloat(k int, vs []float64, o mapred.Ops) float64 {
	var s float64
	for _, v := range vs {
		s += v
		o.AddOps(1)
	}
	return s
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

// ytxMapper is the stateful-combiner mapper of the YtXJob: it folds every
// row of its task into the task's partial and flushes it from Cleanup.
type ytxMapper struct {
	em       *emDriver
	meanProp bool
	p        *partial
}

func (m *ytxMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	p := m.p
	out.AddOps(p.add(p.latent(row, m.em, m.meanProp), p.xi))
}

func (m *ytxMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	m.p.emitRows(out)
	out.Emit(keyXtX, m.p.xtx.Data)
	out.Emit(keySumX, m.p.sumX)
}

// ss3Job recomputes X on demand and accumulates Σ Xi_c·(Cᵀ·Yiᵀ), in the
// associative order (§4.1, Eq. 3) unless the ablation turns it off.
func ss3Job(e *mrEngine, em *emDriver, cNew *matrix.Dense) (float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "ss3Job",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &ss3Mapper{em: em, c: cNew, meanProp: e.opt.MeanPropagation, assoc: e.opt.AssociativeSS3, p: e.parts[task]}
		},
		Combine:    sumFloat,
		Reduce:     reduceSumFloat,
		InputBytes: mapred.BytesOfSparseVec,
		KeyBytes:   mapred.BytesOfInt,
		ValueBytes: mapred.BytesOfFloat64,
		Dense:      e.ss3Spec,
	}
	out, err := mapred.Run(e.eng, job, e.rows)
	if err != nil {
		return 0, err
	}
	return out[keySS3], nil
}

// ss3Mapper sums its task's ss3 terms. It uses only the row scratch of the
// task's partial, whose YtX rows the previous job already flushed.
type ss3Mapper struct {
	em              *emDriver
	c               *matrix.Dense
	meanProp, assoc bool
	p               *partial
	sum             float64
}

func (m *ss3Mapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	t, ops := m.p.ss3Term(m.p.latent(row, m.em, m.meanProp), m.c, m.assoc)
	m.sum += t
	out.AddOps(ops)
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
			s := newRowScratch(d)
			return mapred.MapperFunc[matrix.SparseVector, int, []float64](
				func(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
					i++
					row = s.latent(row, em, opt.MeanPropagation)
					out.Emit(i, slices.Clone(s.xi)) // not combinable: every row is distinct
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
			return &ytxJoinMapper{d: d, dims: dims, meanProp: opt.MeanPropagation, mean: em.mean}
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
	return assembleSumsInto(ytxOut, newJobSums(dims, d))
}

// xtxMapper folds the stored X into XtX and ΣX.
type xtxMapper struct {
	d int
	p *partial
}

func (m *xtxMapper) Map(pr pairYX, out mapred.Emitter[int, []float64]) {
	if m.p == nil {
		m.p = newPartial(m.d, 0)
	}
	out.AddOps(m.p.add(matrix.SparseVector{}, pr.x))
}

func (m *xtxMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	if m.p == nil {
		return
	}
	out.Emit(keyXtX, m.p.xtx.Data)
	out.Emit(keySumX, m.p.sumX)
}

// ytxJoinMapper folds Y joined with the stored X into YtX rows.
type ytxJoinMapper struct {
	d, dims  int
	meanProp bool
	mean     []float64
	p        *partial
}

func (m *ytxJoinMapper) Map(pr pairYX, out mapred.Emitter[int, []float64]) {
	if m.p == nil {
		m.p = newPartial(m.d, m.dims)
	}
	row := pr.y
	if !m.meanProp {
		row = m.p.densify(row, m.mean)
	}
	out.AddOps(m.p.scatter(row, pr.x))
}

func (m *ytxJoinMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	if m.p != nil {
		m.p.emitRows(out)
	}
}
