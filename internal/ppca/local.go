package ppca

import (
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/driver"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// latentBlock is how many rows the local pass precomputes latent vectors for
// at a time: the expensive per-row Xi_c (and ss3 dot) fills run on the
// parallel pool over the block, while the scatter-accumulation into the
// shared sums stays sequential in the original row order so every float64
// sum is bit-identical to the plain loop.
const latentBlock = 256

// FitLocal runs the PPCA EM algorithm (Algorithm 1) on a single machine.
// It is the reference implementation the distributed variants are tested
// against, and the engine behind SmartGuess initialization. Mean propagation
// is always used here — the input is never densified.
func FitLocal(y *matrix.Sparse, opt Options) (*Result, error) {
	if err := opt.validate(y.R, y.C); err != nil {
		return nil, err
	}
	if tr := opt.Tracer; tr != nil {
		// No simulated cluster: the trace carries structure (iterations,
		// events) with all timestamps at zero.
		tr.Begin("FitLocal", trace.KindFit,
			trace.I("rows", int64(y.R)), trace.I("dims", int64(y.C)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	mean := y.ColMeans()
	ss1 := y.CenteredFrobeniusSq(mean)
	em := newEMDriver(opt, y.R, y.C, mean, ss1)
	// Local fits have no simulated cluster: a restore only counts the
	// restart in the Result metrics.
	run := driver.New("ppca-local", opt.Options, nil, nil)
	if err := run.Resume(y.R, y.C, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	if opt.Resume == nil && opt.SmartGuess {
		if err := smartGuess(y.R, y.C, y.Row, opt, em, nil); err != nil {
			return nil, fmt.Errorf("ppca: smart guess: %w", err)
		}
	}

	sample := accuracy.New(accuracy.Copy(y.R, y.C, accuracy.SampleRows, accuracy.Seed(opt.Seed), y.Row))
	// Pass scratch allocated once and recycled every iteration.
	return em.fit(run, &localEngine{y: y, scr: newLocalScratch(y.C, em.d)}, sample)
}

// localEngine adapts the single-machine passes to the shared guarded EM
// step. There is no simulated cluster, so the broadcast/compute charge hooks
// are no-ops and History.SimSeconds stays zero.
type localEngine struct {
	y   *matrix.Sparse
	scr *localScratch
}

func (e *localEngine) prepared(*emDriver) {}
func (e *localEngine) pass(em *emDriver) (jobSums, error) {
	return localPass(e.y, em, e.scr), nil
}
func (e *localEngine) solved(*emDriver, *matrix.Dense) {}
func (e *localEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return localSS3(e.y, em, cNew, e.scr), nil
}

// localScratch is FitLocal's per-fit reusable pass state: the pass's partial
// and job sums, the per-block latent rows, the per-block ss3 terms, and one
// row scratch per worker for the ss3 sweep.
type localScratch struct {
	p     *partial
	sums  jobSums
	xis   *matrix.Dense
	terms []float64
	work  []rowScratch
}

func newLocalScratch(dims, d int) *localScratch {
	return &localScratch{
		p:     newPartial(d, dims),
		sums:  newJobSums(dims, d),
		xis:   matrix.NewDense(latentBlock, d),
		terms: make([]float64, latentBlock),
	}
}

// ensureWorkers grows the per-worker row scratch to the pool's current
// width. Called on the driver before the parallel sweep, so it never races.
func (s *localScratch) ensureWorkers(d int) {
	for len(s.work) < parallel.Workers() {
		s.work = append(s.work, newRowScratch(d))
	}
}

// localPass is the consolidated YtX+XtX pass (one scan over the rows).
func localPass(y *matrix.Sparse, em *emDriver, scr *localScratch) jobSums {
	p := scr.p
	p.reset()
	xis := scr.xis // fully overwritten block by block
	for base := 0; base < y.R; base += latentBlock {
		end := min(base+latentBlock, y.R)
		parallel.For(end-base, 16, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				latentRow(y.Row(base+t), em, true, xis.Row(t))
			}
		})
		// partial.add row by row, with XtX swept once per block: the same
		// sums in the same row order.
		for t := 0; t < end-base; t++ {
			p.scatter(y.Row(base+t), xis.Row(t))
			matrix.AXPY(1, xis.Row(t), p.sumX)
		}
		matrix.SymOuterAdd(&p.xtx, xis.Data[:(end-base)*xis.C])
	}
	return p.into(scr.sums)
}

// localSS3 recomputes X row by row and accumulates Σ Xi_c·(Cᵀ·Yiᵀ) with the
// associativity trick of §4.1: multiply Cᵀ with the sparse Yiᵀ first.
func localSS3(y *matrix.Sparse, em *emDriver, c *matrix.Dense, scr *localScratch) float64 {
	var ss3 float64
	// Per-row terms fill in parallel per block; the final sum runs over rows
	// in their original order, bit-identical to a plain loop.
	scr.ensureWorkers(em.d)
	terms := scr.terms
	for base := 0; base < y.R; base += latentBlock {
		end := min(base+latentBlock, y.R)
		parallel.ForWorker(end-base, 16, func(w, lo, hi int) {
			s := &scr.work[w]
			for t := lo; t < hi; t++ {
				terms[t], _ = s.ss3Term(s.latent(y.Row(base+t), em, true), c, true)
			}
		})
		for t := 0; t < end-base; t++ {
			ss3 += terms[t]
		}
	}
	return ss3
}

// smartGuess seeds em with the result of a local fit on a row sample
// (sPCA-SG, §5.2); row(i) returns input row i of n. On a simulated cluster
// the sample fit runs on the driver, charged ~5 iterations of 2·nnz·d on one
// core (it is small by construction).
func smartGuess(n, dims int, row func(int) matrix.SparseVector, opt Options, em *emDriver, cl *cluster.Cluster) error {
	want := smartGuessSize(opt, n)
	if want >= n {
		return nil // nothing to gain
	}
	sample := accuracy.Copy(n, dims, want, accuracy.Seed(opt.Seed+0x5A), row)
	subOpt := opt
	subOpt.SmartGuess = false
	subOpt.TargetAccuracy = 0
	subOpt.IdealError = 0
	subOpt.MaxIter = 5
	res, err := FitLocal(sample, subOpt)
	if err != nil {
		return err
	}
	if cl != nil {
		cl.AddDriverCompute(int64(subOpt.MaxIter) * 2 * int64(sample.NNZ()) * int64(opt.Components))
	}
	em.c = res.Components
	em.ctcValid = false
	em.ss = res.SS
	return nil
}

func smartGuessSize(opt Options, n int) int {
	sz := opt.SmartGuessRows
	if sz <= 0 {
		sz = n / 10
	}
	if min := 2 * opt.Components; sz < min {
		sz = min
	}
	if sz > 2000 {
		sz = 2000
	}
	if sz > n {
		sz = n
	}
	return sz
}
