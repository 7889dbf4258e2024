package rsvd

import (
	"fmt"

	"spca/internal/colmean"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
	"spca/internal/trace"
)

// FitSpark runs the communication-optimal distributed sketch (Balcan et
// al.): every partition computes a complete local randomized sketch — range
// finding, local power iterations, and the k x D projection B_p = Q_pᵀ·Y_pc
// — entirely without communication, then ships only its B_p block to the
// driver, which stacks the blocks and takes one small SVD. Total shuffle is
// s·k·D·8 bytes for s partitions regardless of N, versus the N-proportional
// materialization of the MapReduce pipeline.
func FitSpark(ctx *rdd.Context, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.Validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := ctx.Cluster()
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitRSVD", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}

	// On resume the RDD setup below is redone by this incarnation, so its
	// cost moves to RecoverySeconds when the clock is rewound to the
	// snapshot.
	y := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
	y.Persist()
	defer y.Unpersist()
	return FitSketch("rsvd-spark", opt, rows, dims, cl, ctx,
		func() ([]float64, error) { return colmean.Spark(ctx, y, "rsvd-mean", dims) },
		func(mean []float64) RoundEngine {
			return &sparkEngine{
				ctx: ctx, y: y, dims: dims, opt: opt, mean: mean,
				parts: make([]*localSketch, y.NumPartitions()),
			}
		})
}

// sparkEngine implements one sketch round as a single RDD action plus an
// accumulator read. Per-partition scratch (parts) and the driver-side stack
// are allocated on the first round and reused afterwards.
type sparkEngine struct {
	ctx     *rdd.Context
	y       *rdd.RDD[matrix.SparseVector]
	dims    int
	opt     Options
	mean    []float64
	parts   []*localSketch
	mb      []float64     // driver-side ΩᵀYm, reused per round
	stacked *matrix.Dense // (blocks·k) x D merge target, reused per round
}

func (e *sparkEngine) Round(round, k int) (*matrix.Dense, []float64, error) {
	cl := e.ctx.Cluster()
	// One Ω per round, shared by every partition (the local sketches must
	// project onto a common test matrix for their ranges to be mergeable).
	omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(e.opt.Seed, "rsvd/local-omega", uint64(round))), e.dims, k)
	rdd.Broadcast(e.ctx, "rsvd/omega", mapred.BytesOfDense(omega))
	// mb = ΩᵀYm (k-vector), computed once on the driver and shipped with Ω
	// so mean propagation costs each partition O(nnz·k), not O(D·k).
	if cap(e.mb) < k {
		e.mb = make([]float64, k)
	}
	mb := omega.MulVecTInto(e.mean, e.mb[:k])
	cl.AddDriverCompute(int64(e.dims) * int64(k))

	acc := rdd.NewAccumulator(e.ctx, "rsvd/sketch",
		&sketchStack{},
		func(into, from *sketchStack) *sketchStack {
			into.blocks = append(into.blocks, from.blocks...)
			return into
		},
		func(s *sketchStack) int64 { return s.bytes() },
	)
	power := e.opt.PowerIterations
	err := e.y.ForeachPartition("rsvd/localSketch", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		if len(part) == 0 {
			return
		}
		ls := e.sketch(task, len(part), k)
		ls.run(part, omega, mb, e.mean, power, ops)
		// The payload wrapper is pooled with the rest of the scratch; the
		// accumulator only holds it until the driver's Value() below.
		ls.stack.blocks = append(ls.stack.blocks[:0], ls.b)
		acc.Merge(task, &ls.stack)
	})
	if err != nil {
		return nil, nil, err
	}
	stack := acc.Value()
	if len(stack.blocks) == 0 {
		return nil, nil, fmt.Errorf("rsvd: sketch action produced no blocks")
	}

	// Driver merge: stack the k x D blocks (ascending task order — the
	// accumulator already folded them that way) and take one small SVD. The
	// principal directions are the stack's RIGHT singular vectors, and its
	// singular values estimate Yc's because StackᵀStack = Σ B_pᵀB_p ≈ YcᵀYc.
	rows := len(stack.blocks) * k
	if e.stacked == nil || e.stacked.R != rows || e.stacked.C != e.dims {
		e.stacked = matrix.NewDense(rows, e.dims)
	}
	for bi, b := range stack.blocks {
		for r := 0; r < k; r++ {
			copy(e.stacked.Row(bi*k+r), b.Row(r))
		}
	}
	_, s, v := matrix.TopSVD(e.stacked, e.opt.Components)
	cl.AddDriverCompute(int64(rows) * int64(e.dims) * int64(k))
	return v, s, nil
}

func (e *sparkEngine) sketch(task, n, k int) *localSketch {
	ls := e.parts[task]
	if ls == nil || ls.k != k || ls.p.R != n {
		ls = newLocalSketch(n, e.dims, k)
		e.parts[task] = ls
	}
	return ls
}

// sketchStack is the accumulator payload: k x D blocks in task order.
type sketchStack struct {
	blocks []*matrix.Dense
}

func (s *sketchStack) bytes() int64 {
	var b int64
	for _, m := range s.blocks {
		b += int64(m.R) * int64(m.C) * 8
	}
	return b
}

// localSketch is one partition's scratch, allocated on the first round
// (partition sizes are fixed by the persisted RDD) and reused afterwards.
type localSketch struct {
	k      int
	p      *matrix.Dense // n_p x k projection / basis (orthonormalized in place)
	t      *matrix.Dense // D x k   T = Y_pcᵀ·Q_p, for the power iterations and B_p
	b      *matrix.Dense // k x D   the shipped block B_p = Q_pᵀ·Y_pc
	colSum []float64     // column sums of Q_p (mean propagation)
	mbt    []float64     // TᵀYm for the local power-iteration projection
	stack  sketchStack   // pooled accumulator payload wrapping b
}

func newLocalSketch(n, dims, k int) *localSketch {
	return &localSketch{
		k:      k,
		p:      matrix.NewDense(n, k),
		t:      matrix.NewDense(dims, k),
		b:      matrix.NewDense(k, dims),
		colSum: make([]float64, k),
		mbt:    make([]float64, k),
	}
}

// run computes the partition's complete local sketch. Every step is local
// real compute charged through ops; nothing leaves the node until the caller
// merges ls.b.
func (ls *localSketch) run(part []matrix.SparseVector, omega *matrix.Dense, mb, mean []float64, power int, ops *rdd.TaskOps) {
	k := ls.k
	dims := omega.R
	// Range finding: P = Y_pc·Ω.
	ls.project(part, omega, mb, ops)
	ops.AddOps(orthoOps(len(part), k))
	matrix.GramSchmidt(ls.p)

	// Local power iterations: Q ← orth(Y_pc·(Y_pcᵀ·Q)), no communication.
	for pi := 0; pi < power; pi++ {
		ls.transposeMul(part, mean, ops)
		// mbt = TᵀYm, the mean-propagation vector for the next projection.
		ls.t.MulVecTInto(mean, ls.mbt)
		ops.AddOps(int64(dims) * int64(k))
		ls.project(part, ls.t, ls.mbt, ops)
		ops.AddOps(orthoOps(len(part), k))
		matrix.GramSchmidt(ls.p)
	}

	// B_p = Q_pᵀ·Y_pc (k x D) with mean propagation via colSum(Q_p): the
	// transpose of T = Y_pcᵀ·Q_p.
	ls.transposeMul(part, mean, ops)
	ls.t.TInto(ls.b)
}

// project fills P = Y_pc·B for a D x k matrix B, where mb = BᵀYm.
func (ls *localSketch) project(part []matrix.SparseVector, b *matrix.Dense, mb []float64, ops *rdd.TaskOps) {
	k := ls.k
	for i, row := range part {
		pi := ls.p.Row(i)
		for t := range pi {
			pi[t] = -mb[t]
		}
		row.MulAdd(b, pi)
		ops.AddOps(int64(row.NNZ()*k + k))
	}
}

// transposeMul fills T = Y_pcᵀ·Q_p (D x k) with mean propagation.
func (ls *localSketch) transposeMul(part []matrix.SparseVector, mean []float64, ops *rdd.TaskOps) {
	k := ls.k
	ls.t.Zero()
	clear(ls.colSum)
	var nnz int64
	for i, row := range part {
		qi := ls.p.Row(i)
		matrix.AXPY(1, qi, ls.colSum)
		for t, j := range row.Indices {
			matrix.AXPY(row.Values[t], qi, ls.t.Row(j))
		}
		nnz += int64(row.NNZ())
	}
	ls.t.SubOuter(mean, ls.colSum)
	ops.AddOps(nnz*int64(k) + int64(len(part))*int64(k) + int64(ls.t.R)*int64(k))
}

// orthoOps is the modified Gram–Schmidt flop count for an n x k basis.
func orthoOps(n, k int) int64 { return int64(n) * int64(k) * int64(k) * 2 }
