package ppca

import (
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/colmean"
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
	run := driver.New("spca-spark", opt.Options, cl, ctx)
	if err := run.Resume(len(rows), dims, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	var em *emDriver
	if snap := opt.Resume; snap != nil {
		em = newEMDriver(opt, len(rows), dims, snap.Mean, snap.SS1)
	} else {
		mean, err := colmean.Spark(ctx, y, "meanJob", dims)
		if err != nil {
			return nil, err
		}
		ss1, err := sparkFnorm(ctx, y, mean, opt.EfficientFrobenius)
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

	return em.fit(run, newSparkEngine(ctx, y, dims, opt), accuracy.Draw(rows, dims, accuracy.Seed(opt.Seed)))
}

// sparkEngine adapts the RDD jobs to the shared guarded EM step.
type sparkEngine struct {
	ctx   *rdd.Context
	y     *rdd.RDD[matrix.SparseVector]
	dims  int
	opt   Options
	parts *partialPool // the tasks' partials, shared by the YtX and ss3 passes
	acc   *partial     // the YtX accumulator's fold target
	sums  jobSums
}

// newSparkEngine allocates the engine's pass state once; it is recycled
// every iteration.
func newSparkEngine(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], dims int, opt Options) *sparkEngine {
	d := opt.Components
	return &sparkEngine{
		ctx: ctx, y: y, dims: dims, opt: opt,
		parts: newPartialPool(d, dims),
		acc:   newPartial(d, dims),
		sums:  newJobSums(dims, d),
	}
}

func (e *sparkEngine) prepared(em *emDriver) {
	rdd.Broadcast(e.ctx, "CM", mapred.BytesOfDense(em.cm))
}

func (e *sparkEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return sparkYtXJob(e, em)
	}
	return sparkUnoptimized(e.ctx, e.y, e.dims, em, e.opt)
}

func (e *sparkEngine) solved(em *emDriver, cNew *matrix.Dense) {
	d := int64(e.opt.Components)
	e.ctx.Cluster().AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	rdd.Broadcast(e.ctx, "C", mapred.BytesOfDense(cNew))
}

func (e *sparkEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return sparkSS3Job(e, em, cNew)
}

func sparkFnorm(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], mean []float64, efficient bool) (float64, error) {
	msum := matrix.Dot(mean, mean)
	agg, err := rdd.Aggregate(y, "FnormJob",
		func() *fnormPartial { return &fnormPartial{mean: mean, msum: msum, efficient: efficient} },
		func(p *fnormPartial, row matrix.SparseVector, ops *rdd.TaskOps) *fnormPartial {
			ops.AddOps(p.add(row))
			return p
		},
		func(a, b *fnormPartial) *fnormPartial { a.sum += b.sum; return a },
		func(*fnormPartial) int64 { return 8 },
	)
	if err != nil {
		return 0, err
	}
	ctx.Cluster().FreeDriver(8)
	return agg.sum, nil
}

// mergePartial is the fold of the partial accumulators.
func mergePartial(into, from *partial) *partial {
	into.merge(from)
	return into
}

// foldPartial is the fold of the YtX accumulator: it merges a task's
// partial and hands it back to the pool.
func (e *sparkEngine) foldPartial(into, from *partial) *partial {
	into.merge(from)
	e.parts.Put(from)
	return into
}

// sparkYtXJob is Algorithm 5: one map pass computing X on demand, folding
// XtX/YtX/ΣX partials into accumulators inside the map (no reduce stage).
// Only the claimed YtX rows of each partial cross the network (§4.2). The
// accumulator folds each task's partial as soon as the tasks before it are
// folded, so the pass holds a few partials, not one per partition.
func sparkYtXJob(e *sparkEngine, em *emDriver) (jobSums, error) {
	e.acc.reset()
	acc := rdd.NewAccumulator(e.ctx, "YtXSum", e.acc, e.foldPartial, (*partial).bytes)
	err := e.y.ForeachPartition("YtXJob", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		p := e.parts.Get()
		p.reset()
		for _, row := range part {
			ops.AddOps(p.add(p.latent(row, em, e.opt.MeanPropagation), p.xi))
		}
		acc.Merge(task, p)
	})
	if err != nil {
		return jobSums{}, err
	}
	return acc.Value().into(e.sums), nil
}

func sparkSS3Job(e *sparkEngine, em *emDriver, cNew *matrix.Dense) (float64, error) {
	acc := rdd.NewAccumulator(e.ctx, "ss3", 0.0,
		func(a, b float64) float64 { return a + b },
		func(float64) int64 { return 8 },
	)
	err := e.y.ForeachPartition("ss3Job", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		p := e.parts.Get() // only its row scratch
		var local float64
		for _, row := range part {
			t, n := p.ss3Term(p.latent(row, em, e.opt.MeanPropagation), cNew, e.opt.AssociativeSS3)
			local += t
			ops.AddOps(n)
		}
		e.parts.Put(p)
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
	// Materialize X alongside Y so later passes can join them. Records map
	// concurrently, so each gets its own scratch, whose xi it keeps.
	pairs := rdd.Map(y, "XJob", func(row matrix.SparseVector) pairYX {
		s := newRowScratch(d)
		s.latent(row, em, opt.MeanPropagation)
		return pairYX{y: row, x: s.xi}
	}, func(p pairYX) int64 {
		return mapred.BytesOfSparseVec(p.y) + mapred.BytesOfVec(p.x)
	}, int64(d)*8)

	// Pass 1: XtX and ΣX from the stored X.
	xtxAcc := rdd.NewAccumulator(ctx, "XtXSum", newPartial(d, 0), mergePartial, (*partial).bytes)
	err := pairs.ForeachPartition("XtXJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		local := newPartial(d, 0)
		for _, pr := range part {
			ops.AddOps(local.add(matrix.SparseVector{}, pr.x))
		}
		xtxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}

	// Pass 2: YtX from Y joined with the stored X.
	ytxAcc := rdd.NewAccumulator(ctx, "YtXSum", newPartial(d, dims), mergePartial, (*partial).bytes)
	err = pairs.ForeachPartition("YtXJoinJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		local := newPartial(d, dims)
		for _, pr := range part {
			row := pr.y
			if !opt.MeanPropagation {
				row = local.densify(row, em.mean)
			}
			ops.AddOps(local.scatter(row, pr.x))
		}
		ytxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}

	xres := xtxAcc.Value()
	sums := ytxAcc.Value().into(newJobSums(dims, d))
	copy(sums.xtx.Data, xres.xtx.Data)
	matrix.MirrorUpper(sums.xtx)
	copy(sums.sumX, xres.sumX)
	return sums, nil
}
