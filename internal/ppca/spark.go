package ppca

import (
	"fmt"

	"spca/internal/driver"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
	"spca/internal/trace"
)

// FitSpark runs sPCA on the Spark-like engine (Algorithm 5, YtXSparkJob).
// The input matrix is persisted in the cluster's aggregate memory and
// scanned once (YtXJob) plus once more (ss3Job) per iteration; per-row
// partial results are folded into accumulators, and only the sparse entries
// of each YtX partial cross the network (§4.2).
func FitSpark(ctx *rdd.Context, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := ctx.Cluster()
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitSpark", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}

	y := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
	y.Persist()
	defer y.Unpersist()

	// On resume the RDD setup above was redone by this incarnation, so its
	// cost moves to RecoverySeconds when the clock is rewound to the
	// snapshot; the mean and Frobenius jobs are restored, not re-run.
	run := driver.New(opt.Options, cl, ctx)
	if err := run.Resume(len(rows), dims, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	var em *emDriver
	if snap := opt.Resume; snap != nil {
		em = newEMDriver(opt, len(rows), dims, snap.Mean, snap.SS1)
	} else {
		mean, err := sparkMean(ctx, y, dims)
		if err != nil {
			return nil, err
		}
		ss1, err := sparkFnorm(ctx, y, mean, opt.EfficientFrobenius)
		if err != nil {
			return nil, err
		}
		em = newEMDriver(opt, len(rows), dims, mean, ss1)
		if opt.SmartGuess {
			if err := smartGuessSpark(ctx, rows, dims, opt, em); err != nil {
				return nil, fmt.Errorf("ppca: smart guess: %w", err)
			}
		}
	}

	// Per-partition task scratch plus the driver-side sums, allocated once
	// and recycled every iteration.
	return em.fit(run, &sparkEngine{
		ctx: ctx, y: y, dims: dims, opt: opt,
		scr:    newSparkScratch(y.NumPartitions(), dims, em.d),
		ymat:   sparseFromRows(rows, dims),
		sample: sampleIdx(len(rows), opt.sampleRows(), opt.Seed),
	})
}

// sparkEngine adapts the RDD jobs to the shared guarded EM step.
type sparkEngine struct {
	ctx    *rdd.Context
	y      *rdd.RDD[matrix.SparseVector]
	dims   int
	opt    Options
	scr    *sparkScratch
	ymat   *matrix.Sparse
	sample []int
}

func (e *sparkEngine) prepared(em *emDriver) {
	rdd.Broadcast(e.ctx, "CM", mapred.BytesOfDense(em.cm))
}

func (e *sparkEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return sparkYtXJob(e.ctx, e.y, em, e.opt, e.scr)
	}
	return sparkUnoptimized(e.ctx, e.y, e.dims, em, e.opt)
}

func (e *sparkEngine) solved(em *emDriver, cNew *matrix.Dense) {
	d := int64(e.opt.Components)
	e.ctx.Cluster().AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	rdd.Broadcast(e.ctx, "C", mapred.BytesOfDense(cNew))
}

func (e *sparkEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return sparkSS3Job(e.ctx, e.y, em, cNew, e.opt, e.scr)
}

func (e *sparkEngine) reconErr(em *emDriver) float64 { return em.reconError(e.ymat, e.sample) }

// meanPartial is the per-partition state of the mean computation.
type meanPartial struct {
	sums  map[int]float64
	count float64
}

func meanPartialBytes(p *meanPartial) int64 {
	if p == nil {
		return 8
	}
	return 16 + int64(len(p.sums))*16
}

func sparkMean(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], dims int) ([]float64, error) {
	agg, err := rdd.Aggregate(y, "meanJob",
		func() *meanPartial { return &meanPartial{sums: map[int]float64{}} },
		func(p *meanPartial, row matrix.SparseVector, ops *rdd.TaskOps) *meanPartial {
			for k, j := range row.Indices {
				p.sums[j] += row.Values[k]
			}
			p.count++
			ops.AddOps(int64(row.NNZ()))
			return p
		},
		func(a, b *meanPartial) *meanPartial {
			for j, v := range b.sums {
				a.sums[j] += v
			}
			a.count += b.count
			return a
		},
		meanPartialBytes,
	)
	if err != nil {
		return nil, err
	}
	defer ctx.Cluster().FreeDriver(meanPartialBytes(agg))
	if agg.count == 0 {
		return nil, fmt.Errorf("ppca: sparkMean saw no rows")
	}
	mean := make([]float64, dims)
	for j, v := range agg.sums {
		mean[j] = v / agg.count
	}
	return mean, nil
}

// fnormPart is one partition's Frobenius partial: the scalar that crosses
// the wire plus the task-local densify buffer (Algorithm 2 path) that never
// leaves the task — sized to the widest row seen, not allocated per row.
type fnormPart struct {
	sum   float64
	dense []float64
}

func sparkFnorm(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], mean []float64, efficient bool) (float64, error) {
	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	agg, err := rdd.AggregateInto(y, "FnormJob",
		func(int) *fnormPart { return &fnormPart{} },
		func(acc *fnormPart, row matrix.SparseVector, ops *rdd.TaskOps) *fnormPart {
			if efficient {
				s := msum
				for k, j := range row.Indices {
					v := row.Values[k]
					dv := v - mean[j]
					s += dv*dv - mean[j]*mean[j]
				}
				ops.AddOps(int64(2 * row.NNZ()))
				acc.sum += s
				return acc
			}
			if cap(acc.dense) < row.Len {
				acc.dense = make([]float64, row.Len)
			}
			dense := acc.dense[:row.Len]
			for j := range dense {
				dense[j] = 0
			}
			for k, j := range row.Indices {
				dense[j] = row.Values[k]
			}
			var s float64
			for j, v := range dense {
				dv := v - mean[j]
				s += dv * dv
			}
			ops.AddOps(int64(2 * row.Len))
			acc.sum += s
			return acc
		},
		func(a, b *fnormPart) *fnormPart { a.sum += b.sum; return a },
		func(*fnormPart) int64 { return 8 },
	)
	if err != nil {
		return 0, err
	}
	ctx.Cluster().FreeDriver(8)
	return agg.sum, nil
}

// sparkSums is the per-partition partial of the consolidated YtX job.
type sparkSums struct {
	ytx  map[int][]float64
	xtx  []float64
	sumX []float64
}

func newSparkSums(d int) *sparkSums {
	return &sparkSums{
		ytx:  make(map[int][]float64),
		xtx:  make([]float64, d*d),
		sumX: make([]float64, d),
	}
}

// bytes models the wire size when only sparse YtX entries are shipped.
func (s *sparkSums) bytes(d int) int64 {
	return int64(len(s.ytx))*(8+int64(d)*8) + int64(d*d)*8 + int64(d)*8
}

func (s *sparkSums) merge(o *sparkSums) {
	for j, v := range o.ytx {
		if p := s.ytx[j]; p != nil {
			matrix.AXPY(1, v, p)
		} else {
			s.ytx[j] = v
		}
	}
	matrix.AXPY(1, o.xtx, s.xtx)
	matrix.AXPY(1, o.sumX, s.sumX)
}

// sparkScratch owns the per-fit reusable state of the Spark jobs: one scratch
// per partition (partition count is fixed for the life of the RDD), the
// accumulator zero the per-iteration YtX accumulator folds into, and the
// driver-side jobSums.
//
// Ownership protocol: the accumulator merge steals YtX row vectors from the
// first task partial holding each key, so after Value() the accumulator zero
// aliases task-owned vectors. Those aliases die when resetAccZero clears the
// map at the START of the next YtX pass — before any task scratch is reset —
// so a cleared-and-recycled vector is never reachable through a live map.
type sparkScratch struct {
	d       int
	parts   []*sparkPartScratch
	accZero *sparkSums
	sums    jobSums
}

func newSparkScratch(partitions, dims, d int) *sparkScratch {
	return &sparkScratch{
		d:       d,
		parts:   make([]*sparkPartScratch, partitions),
		accZero: newSparkSums(d),
		sums:    newJobSums(dims, d),
	}
}

// resetAccZero clears the accumulator zero for a new pass. The map values are
// NOT recycled here — they are owned by the task scratches that donated them.
func (sc *sparkScratch) resetAccZero() *sparkSums {
	clear(sc.accZero.ytx)
	for i := range sc.accZero.xtx {
		sc.accZero.xtx[i] = 0
	}
	for i := range sc.accZero.sumX {
		sc.accZero.sumX[i] = 0
	}
	return sc.accZero
}

// sparkPartScratch is one partition's task-local scratch, shared by the YtX
// and ss3 passes (which never run concurrently). Tasks for distinct
// partitions write distinct slots of the pre-sized parts slice, so the
// concurrent partition loop never races.
type sparkPartScratch struct {
	d    int
	sums *sparkSums
	free [][]float64 // recycled YtX partial rows
	xi   []float64
	ct   []float64
	xc   []float64 // D-length scratch for the non-associative ss3 order
	idx  []int     // densify scratch for the no-mean-propagation ablation
	vals []float64
}

func newSparkPartScratch(d int) *sparkPartScratch {
	return &sparkPartScratch{
		d:    d,
		sums: newSparkSums(d),
		xi:   make([]float64, d),
		ct:   make([]float64, d),
	}
}

// ytxPart returns partition task's scratch with its sums reset for a new pass.
func (sc *sparkScratch) ytxPart(task int) *sparkPartScratch {
	ps := sc.partScratch(task)
	for j, p := range ps.sums.ytx {
		ps.free = append(ps.free, p)
		delete(ps.sums.ytx, j)
	}
	for i := range ps.sums.xtx {
		ps.sums.xtx[i] = 0
	}
	for i := range ps.sums.sumX {
		ps.sums.sumX[i] = 0
	}
	return ps
}

// ss3Part returns partition task's scratch without touching sums (the ss3
// pass only uses the vector buffers, which are overwritten per row).
func (sc *sparkScratch) ss3Part(task int) *sparkPartScratch {
	return sc.partScratch(task)
}

func (sc *sparkScratch) partScratch(task int) *sparkPartScratch {
	ps := sc.parts[task]
	if ps == nil {
		ps = newSparkPartScratch(sc.d)
		sc.parts[task] = ps
	}
	return ps
}

// vec hands out a zeroed d-vector, recycling the freelist when possible.
func (ps *sparkPartScratch) vec() []float64 {
	if n := len(ps.free); n > 0 {
		p := ps.free[n-1]
		ps.free = ps.free[:n-1]
		for i := range p {
			p[i] = 0
		}
		return p
	}
	return make([]float64, ps.d)
}

func (ps *sparkPartScratch) densify(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	if cap(ps.idx) < row.Len {
		ps.idx = make([]int, row.Len)
		ps.vals = make([]float64, row.Len)
	}
	return matrix.DensifyCenteredInto(row, mean, ps.idx[:row.Len], ps.vals[:row.Len])
}

// sparkYtXJob is Algorithm 5: one map pass computing X on demand, folding
// XtX/YtX/ΣX partials into accumulators inside the map (no reduce stage).
func sparkYtXJob(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], em *emDriver, opt Options, scr *sparkScratch) (jobSums, error) {
	d := em.d
	acc := rdd.NewAccumulator(ctx, "YtXSum", scr.resetAccZero(),
		func(into, from *sparkSums) *sparkSums { into.merge(from); return into },
		func(s *sparkSums) int64 { return s.bytes(d) },
	)
	err := y.ForeachPartition("YtXJob", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		ps := scr.ytxPart(task)
		local, xi := ps.sums, ps.xi
		for _, row := range part {
			if !opt.MeanPropagation {
				row = ps.densify(row, em.mean)
			}
			computeRowLatent(row, em, opt.MeanPropagation, xi)
			for k, j := range row.Indices {
				p := local.ytx[j]
				if p == nil {
					p = ps.vec()
					local.ytx[j] = p
				}
				matrix.AXPY(row.Values[k], xi, p)
			}
			for a := 0; a < d; a++ {
				va := xi[a]
				base := a * d
				for b := 0; b < d; b++ {
					local.xtx[base+b] += va * xi[b]
				}
			}
			matrix.AXPY(1, xi, local.sumX)
			ops.AddOps(int64(2*row.NNZ()*d + d*d + d))
		}
		acc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}
	total := acc.Value()
	sums := scr.sums
	sums.ytx.Zero()
	// Copy, not alias: total.sumX is the pooled accumulator zero, which the
	// next pass clears while the driver still holds these sums.
	copy(sums.sumX, total.sumX)
	for j, v := range total.ytx {
		copy(sums.ytx.Row(j), v)
	}
	copy(sums.xtx.Data, total.xtx)
	return sums, nil
}

func sparkSS3Job(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], em *emDriver, cNew *matrix.Dense, opt Options, scr *sparkScratch) (float64, error) {
	d := em.d
	acc := rdd.NewAccumulator(ctx, "ss3", 0.0,
		func(a, b float64) float64 { return a + b },
		func(float64) int64 { return 8 },
	)
	err := y.ForeachPartition("ss3Job", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		ps := scr.ss3Part(task)
		xi, ct := ps.xi, ps.ct
		var local float64
		for _, row := range part {
			if !opt.MeanPropagation {
				row = ps.densify(row, em.mean)
			}
			computeRowLatent(row, em, opt.MeanPropagation, xi)
			if opt.AssociativeSS3 {
				// Eq. 3 with associativity: Cᵀ·Yiᵀ touches only non-zeros.
				for k := range ct {
					ct[k] = 0
				}
				for k, j := range row.Indices {
					matrix.AXPY(row.Values[k], cNew.Row(j), ct)
				}
				local += matrix.Dot(xi, ct)
				ops.AddOps(int64(2*row.NNZ()*d + d))
				continue
			}
			// Dense order (Xi·Cᵀ)·Yiᵀ: O(D·d) per row.
			if ps.xc == nil {
				ps.xc = make([]float64, cNew.R)
			}
			denseXC(xi, cNew, ps.xc)
			var s float64
			for k, j := range row.Indices {
				s += ps.xc[j] * row.Values[k]
			}
			local += s
			ops.AddOps(int64(row.NNZ()*d + cNew.R*d + row.NNZ()))
		}
		acc.Merge(task, local)
	})
	if err != nil {
		return 0, err
	}
	return acc.Value(), nil
}

// sparkUnoptimized materializes X as a (never-cached, so disk-resident) RDD
// and runs separate XtX and YtX passes over it — the baseline of Table 3's
// "intermediate data" row.
func sparkUnoptimized(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], dims int, em *emDriver, opt Options) (jobSums, error) {
	d := em.d
	// Materialize X alongside Y so later passes can join them.
	pairs := rdd.Map(y, "XJob", func(row matrix.SparseVector) pairYX {
		r := row
		if !opt.MeanPropagation {
			r = densifyCentered(row, em.mean)
		}
		xi := make([]float64, d)
		computeRowLatent(r, em, opt.MeanPropagation, xi)
		return pairYX{y: row, x: xi}
	}, func(p pairYX) int64 {
		return mapred.BytesOfSparseVec(p.y) + mapred.BytesOfVec(p.x)
	}, int64(d)*8)

	// Pass 1: XtX and ΣX from the stored X.
	xtxAcc := rdd.NewAccumulator(ctx, "XtXSum", newSparkSums(d),
		func(into, from *sparkSums) *sparkSums { into.merge(from); return into },
		func(s *sparkSums) int64 { return s.bytes(d) },
	)
	err := pairs.ForeachPartition("XtXJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		local := newSparkSums(d)
		for _, p := range part {
			for a := 0; a < d; a++ {
				va := p.x[a]
				base := a * d
				for b := 0; b < d; b++ {
					local.xtx[base+b] += va * p.x[b]
				}
			}
			matrix.AXPY(1, p.x, local.sumX)
			ops.AddOps(int64(d*d + d))
		}
		xtxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}

	// Pass 2: YtX from Y joined with the stored X.
	ytxAcc := rdd.NewAccumulator(ctx, "YtXSum", newSparkSums(d),
		func(into, from *sparkSums) *sparkSums { into.merge(from); return into },
		func(s *sparkSums) int64 { return s.bytes(d) },
	)
	err = pairs.ForeachPartition("YtXJoinJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		local := newSparkSums(d)
		for _, p := range part {
			row := p.y
			if !opt.MeanPropagation {
				row = densifyCentered(row, em.mean)
			}
			for k, j := range row.Indices {
				q := local.ytx[j]
				if q == nil {
					q = make([]float64, d)
					local.ytx[j] = q
				}
				matrix.AXPY(row.Values[k], p.x, q)
			}
			ops.AddOps(int64(row.NNZ() * d))
		}
		ytxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}

	xres := xtxAcc.Value()
	yres := ytxAcc.Value()
	sums := jobSums{
		ytx:  matrix.NewDense(dims, d),
		xtx:  matrix.NewDense(d, d),
		sumX: xres.sumX,
	}
	for j, v := range yres.ytx {
		copy(sums.ytx.Row(j), v)
	}
	copy(sums.xtx.Data, xres.xtx)
	return sums, nil
}

func smartGuessSpark(ctx *rdd.Context, rows []matrix.SparseVector, dims int, opt Options, em *emDriver) error {
	n := smartGuessSize(opt, len(rows))
	if n >= len(rows) {
		return nil
	}
	sample := sampleSparseRows(sparseFromRows(rows, dims), n, opt.Seed+0x5A)
	subOpt := opt
	subOpt.SmartGuess = false
	subOpt.TargetAccuracy = 0
	subOpt.IdealError = 0
	subOpt.MaxIter = 5
	res, err := FitLocal(sample, subOpt)
	if err != nil {
		return err
	}
	ctx.Cluster().AddDriverCompute(int64(subOpt.MaxIter) * 2 * int64(sample.NNZ()) * int64(opt.Components))
	em.c = res.Components
	em.ss = res.SS
	return nil
}
