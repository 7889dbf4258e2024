package ppca

// Numerical guards for the EM iterations. This file holds the guarded EM
// step all four engines run on the shared iterative driver (emStep +
// emEngine), the non-finite and divergence detectors, the deterministic
// escalating-ridge retry for the d×d SPD solves, and the snapshot
// build/restore glue. See DESIGN.md "Durability & numerical guards".

import (
	"errors"
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/checkpoint"
	"spca/internal/driver"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// ErrNumericalBreakdown is the sentinel every numerical-guard failure wraps:
// a non-finite value in the model state, or a solve that stays singular after
// the bounded ridge escalation.
var ErrNumericalBreakdown = errors.New("ppca: numerical breakdown")

// BreakdownError reports which quantity went non-finite and at which EM
// iteration, so a failed long run is diagnosable without a debugger.
type BreakdownError struct {
	Iter     int    // 1-based EM iteration that produced the bad value
	Quantity string // "components" or "noise variance"
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("ppca: non-finite %s after iteration %d", e.Quantity, e.Iter)
}

func (e *BreakdownError) Unwrap() error { return ErrNumericalBreakdown }

// maxRidgeRetries bounds the reactive ridge escalation on a singular solve.
// Past it the input is genuinely unrecoverable and ErrSingular propagates.
const maxRidgeRetries = 6

// emEngine abstracts the per-iteration distributed work of one engine, so
// the guarded EM step (emStep) is written once and shared by the MapReduce,
// Spark, local, and streaming fits. Driver-side math stays in emDriver; the
// engine supplies the data passes and the cost-model charges around them.
type emEngine interface {
	// prepared charges broadcasting the iteration's CM to the workers.
	prepared(em *emDriver)
	// pass runs the consolidated YtX/XtX/ΣX pass over the data.
	pass(em *emDriver) (jobSums, error)
	// solved charges the driver-side M-step math and broadcasting the new C.
	solved(em *emDriver, cNew *matrix.Dense)
	// ss3 runs the variance pass with the new C.
	ss3(em *emDriver, cNew *matrix.Dense) (float64, error)
}

// emStep is one guarded EM iteration behind the shared iterative driver
// (internal/driver), which owns the loop, the interrupt polls, the
// checkpoints, and the driver-crash injection around it. Each iteration runs
// prepare → pass → update → ss3 → finishVariance, then the numerical guards
// (a non-finite scan of the model state, divergence detection with rollback
// to the best snapshot) and the history entry, graded on sample.
type emStep struct {
	em     *emDriver
	eng    emEngine
	sample *accuracy.Sample
	run    *driver.Run
	res    *Result
}

// Done applies the STOP_CONDITION of §5.1 to the completed history.
func (s *emStep) Done() bool { return s.em.opt.converged(s.res.History) }

func (s *emStep) Step(iter int) error {
	em, eng, opt := s.em, s.eng, s.em.opt
	if err := em.prepare(); err != nil {
		return err
	}
	eng.prepared(em)
	sums, err := eng.pass(em)
	if err != nil {
		return err
	}
	cNew, err := em.update(sums)
	if err != nil {
		return err
	}
	eng.solved(em, cNew)
	ss3raw, err := eng.ss3(em, cNew)
	if err != nil {
		return err
	}
	em.finishVariance(ss3raw)
	if err := em.checkFinite(iter); err != nil {
		return err
	}

	// Each sampled row's latent Xi_c = (Yi - Ym)·CM is reconstructed as
	// Xi_c·Cᵀ + Ym.
	e := s.sample.Err(em.mean, em.cm, em.c)
	stat := IterationStat{
		Iter:         iter,
		Err:          e,
		Accuracy:     accuracy.Of(opt.IdealError, e),
		SS:           em.ss,
		SimSeconds:   s.run.SimSeconds(),
		Ridge:        em.lastRidge,
		RidgeRetries: em.iterRidgeRetries,
	}
	em.iterRidgeRetries = 0
	em.observeDivergence(&stat, opt, s.res.History)
	s.res.History = append(s.res.History, stat)
	opt.Tracer.IterationDone(trace.Iteration{
		Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SS: stat.SS,
		SimSeconds: stat.SimSeconds, Ridge: stat.Ridge,
		RidgeRetries: stat.RidgeRetries, Rollback: stat.Rollback,
	})
	return nil
}

// SpanEnd closes an iteration span with its error and noise variance, or
// marks it aborted.
func (s *emStep) SpanEnd(err error) []trace.Attr {
	if err != nil {
		return []trace.Attr{trace.I("aborted", 1)}
	}
	last := s.res.History[len(s.res.History)-1]
	return []trace.Attr{trace.F("err", last.Err), trace.F("ss", last.SS)}
}

func (s *emStep) Snapshot(iter int) *checkpoint.Snapshot {
	return s.em.buildSnapshot(iter, s.res)
}

// fit runs the EM iterations on the shared driver, grading each on sample,
// and assembles the result.
func (em *emDriver) fit(run *driver.Run, eng emEngine, sample *accuracy.Sample) (*Result, error) {
	res := &Result{Mean: em.mean}
	if snap := em.opt.Resume; snap != nil {
		em.restore(snap, res)
	}
	if err := run.Loop(&emStep{em: em, eng: eng, sample: sample, run: run, res: res}, em.opt.MaxIter, "iteration", "iter"); err != nil {
		return nil, err
	}
	res.Components = em.c
	res.SS = em.ss
	res.Iterations = len(res.History)
	res.Metrics, res.Phases = run.Finish()
	return res, nil
}

// checkFinite scans the model state after an iteration. EM cannot recover
// once NaN/Inf enters C or ss — every later iteration is poisoned — so the
// loop fails fast with iteration context instead of running to MaxIter and
// returning garbage.
func (em *emDriver) checkFinite(iter int) error {
	for _, v := range em.c.Data {
		// v != v catches NaN; the comparisons catch ±Inf without math.Abs.
		if v != v || v > maxFinite || v < -maxFinite {
			return &BreakdownError{Iter: iter, Quantity: "components"}
		}
	}
	if em.ss != em.ss || em.ss > maxFinite || em.ss < 0 {
		return &BreakdownError{Iter: iter, Quantity: "noise variance"}
	}
	return nil
}

const maxFinite = 1.7976931348623157e308 // math.MaxFloat64, inlined for the hot scan

// observeDivergence updates the divergence guard after an iteration: the
// rising-error counter, the best-model snapshot, and — when the error has
// risen DivergeWindow consecutive iterations — the rollback. A rollback
// restores the best components/variance seen so far and escalates the
// standing ridge applied to subsequent M-step solves, damping the update
// that caused the divergence; the iteration's stat keeps the diverged error
// (it is what the run actually produced) with Rollback set.
func (em *emDriver) observeDivergence(stat *IterationStat, opt Options, hist []IterationStat) {
	if opt.DivergeWindow <= 0 {
		return
	}
	if len(hist) > 0 && stat.Err > hist[len(hist)-1].Err {
		em.rising++
	} else {
		em.rising = 0
	}
	if em.haveBest && em.rising >= opt.DivergeWindow {
		copy(em.c.Data, em.bestC.Data)
		em.ctcValid = false
		em.ss = em.bestSS
		em.ridgeLevel++
		em.rising = 0
		stat.Rollback = true
		return
	}
	if !em.haveBest || stat.Err < em.bestErr {
		em.haveBest = true
		em.bestErr = stat.Err
		em.bestSS = em.ss
		em.bestIter = stat.Iter
		copy(em.bestC.Data, em.c.Data)
	}
}

// ridgeScale is the problem-relative unit of ridge regularization: the mean
// diagonal magnitude of the matrix being stabilized, with a floor of 1 so a
// pathological all-zero matrix still gets a non-zero ridge.
func ridgeScale(a *matrix.Dense) float64 {
	var tr float64
	for i := 0; i < a.R; i++ {
		v := a.Data[i*a.C+i]
		if v < 0 {
			v = -v
		}
		tr += v
	}
	s := tr / float64(a.R)
	if !(s > 0) || s > maxFinite {
		return 1
	}
	return s
}

// pow10 is an exact-loop 10^k for small non-negative k (deterministic, no
// libm dependency in the bit-identity path).
func pow10(k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= 10
	}
	return v
}

func addDiag(a *matrix.Dense, lam float64) {
	for i := 0; i < a.R; i++ {
		a.Data[i*a.C+i] += lam
	}
}

// solveGuarded is the guarded M-step solve xtx·Cᵀ = ytxᵀ into dst. The
// standing ridge from divergence rollbacks (level ≥ 1) is applied up front;
// a solve that still returns ErrSingular is retried with a deterministic
// escalating reactive ridge, bounded by maxRidgeRetries, every retry counted
// into the iteration's History entry. xtx is driver-owned scratch and is
// mutated by the ridge additions; SolveSPDInto itself never writes to it.
func (em *emDriver) solveGuarded(xtx, ytx, dst *matrix.Dense, ws *matrix.SPDWorkspace) error {
	em.lastRidge = 0
	if em.ridgeLevel > 0 {
		lam := ridgeScale(xtx) * 1e-6 * pow10(em.ridgeLevel-1)
		addDiag(xtx, lam)
		em.lastRidge = lam
	}
	base := 0.0
	for attempt := 0; ; attempt++ {
		err := matrix.SolveSPDInto(xtx, ytx, dst, ws)
		if err == nil {
			return nil
		}
		if !errors.Is(err, matrix.ErrSingular) || attempt >= maxRidgeRetries {
			return fmt.Errorf("ppca: XtX solve failed after %d ridge retries: %w (%w)", attempt, err, ErrNumericalBreakdown)
		}
		if base == 0 {
			base = ridgeScale(xtx) * 1e-10
		}
		lam := base * pow10(attempt)
		addDiag(xtx, lam)
		em.lastRidge += lam
		em.iterRidgeRetries++
	}
}

// buildSnapshot assembles the driver's current boundary state into a
// checkpoint snapshot (the shared driver stamps the metrics and the engine's
// fault cursor).
func (em *emDriver) buildSnapshot(iter int, res *Result) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Iter: iter,
		N:    em.n, Dims: em.dims, D: em.d, Seed: em.opt.Seed,
		SS: em.ss, SS1: em.ss1,
		Mean: em.mean, C: em.c,
		RidgeLevel: em.ridgeLevel, Rising: em.rising,
	}
	if em.haveBest {
		snap.Best = &checkpoint.BestState{Iter: em.bestIter, Err: em.bestErr, SS: em.bestSS, C: em.bestC}
	}
	snap.History = make([]checkpoint.HistoryEntry, len(res.History))
	for i, h := range res.History {
		snap.History[i] = checkpoint.HistoryEntry{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SS: h.SS,
			SimSeconds: h.SimSeconds, Ridge: h.Ridge,
			RidgeRetries: h.RidgeRetries, Rollback: h.Rollback,
		}
	}
	return snap
}

// restore loads a validated snapshot into the driver: model state, guard
// state, and the completed history. The shared driver's Resume prelude has
// already restored and charged the clock.
func (em *emDriver) restore(snap *checkpoint.Snapshot, res *Result) {
	copy(em.c.Data, snap.C.Data)
	em.ctcValid = false
	em.ss = snap.SS
	em.ridgeLevel = snap.RidgeLevel
	em.rising = snap.Rising
	if snap.Best != nil {
		em.haveBest = true
		em.bestErr = snap.Best.Err
		em.bestSS = snap.Best.SS
		em.bestIter = snap.Best.Iter
		if em.bestC == nil {
			em.bestC = matrix.NewDense(em.dims, em.d)
		}
		copy(em.bestC.Data, snap.Best.C.Data)
	}
	res.History = res.History[:0]
	for _, h := range snap.History {
		res.History = append(res.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SS: h.SS,
			SimSeconds: h.SimSeconds, Ridge: h.Ridge,
			RidgeRetries: h.RidgeRetries, Rollback: h.Rollback,
		})
	}
}
