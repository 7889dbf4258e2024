package ppca

import (
	"errors"
	"math"
	"testing"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/driver"
	"spca/internal/matrix"
)

// guardOpt is the shared deterministic fit config for the crash/resume tests:
// fixed seed, fixed iteration count, no early stop.
func guardOpt(interval int, dir string) Options {
	opt := DefaultOptions(3)
	opt.MaxIter = 6
	opt.Tol = 0
	opt.Checkpoint = driver.CheckpointSpec{Interval: interval, Dir: dir}
	return opt
}

type fitFunc func(opt Options) (*Result, error)

// crashResume runs the three-step durability scenario against one engine:
// an uninterrupted baseline with checkpointing on, a run that driver-crashes
// at crashIter, and a resumed incarnation restored the way the spca facade
// does it. The resumed result must be bit-identical to the baseline.
func crashResume(t *testing.T, crashIter, interval int, dir string, fit fitFunc) (*Result, *Result) {
	t.Helper()

	base, err := fit(guardOpt(interval, t.TempDir()))
	if err != nil {
		t.Fatalf("baseline fit: %v", err)
	}

	crashOpt := guardOpt(interval, dir)
	crashOpt.Faults = &cluster.FaultPlan{DriverCrashIters: []int{crashIter}}
	_, err = fit(crashOpt)
	var crash *cluster.DriverCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crashed fit: want DriverCrashError, got %v", err)
	}
	if crash.Iter != crashIter || crash.Incarnation != 0 {
		t.Fatalf("crash = %+v, want iter %d incarnation 0", crash, crashIter)
	}
	if !errors.Is(err, cluster.ErrDriverCrash) {
		t.Fatal("DriverCrashError must unwrap to ErrDriverCrash")
	}

	resumeOpt := crashOpt
	resumeOpt.Incarnation = 1
	snap, err := checkpoint.Latest(dir)
	switch {
	case err == nil:
		resumeOpt.Resume = snap
		if waste := crash.SimSeconds - snap.Metrics.SimSeconds; waste > 0 {
			resumeOpt.RecoveredSeconds = waste
		}
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Crash before the first snapshot: restart from scratch, the whole
		// first incarnation is wasted time.
		resumeOpt.RecoveredSeconds = crash.SimSeconds
	default:
		t.Fatalf("loading latest checkpoint: %v", err)
	}
	res, err := fit(resumeOpt)
	if err != nil {
		t.Fatalf("resumed fit: %v", err)
	}

	if got, want := fingerprint(res), fingerprint(base); got != want {
		t.Errorf("resumed model fingerprint %s != uninterrupted %s (crash at %d, interval %d)", got, want, crashIter, interval)
	}
	if res.Metrics.SimSeconds != base.Metrics.SimSeconds {
		t.Errorf("resumed SimSeconds %v != uninterrupted %v", res.Metrics.SimSeconds, base.Metrics.SimSeconds)
	}
	if res.Metrics.CheckpointBytes != base.Metrics.CheckpointBytes {
		t.Errorf("resumed CheckpointBytes %d != uninterrupted %d", res.Metrics.CheckpointBytes, base.Metrics.CheckpointBytes)
	}
	if res.Metrics.DriverRestarts != 1 {
		t.Errorf("DriverRestarts = %d, want 1", res.Metrics.DriverRestarts)
	}
	return base, res
}

func TestDriverCrashResumeMapReduce(t *testing.T) {
	rows := dataset.Rows(lowRankSparse(150, 40, 3, 11))
	fit := func(opt Options) (*Result, error) {
		return FitMapReduce(testEngineMR(), rows, 40, opt)
	}
	for _, crashIter := range []int{1, 2, 3, 5, 6} {
		_, res := crashResume(t, crashIter, 2, t.TempDir(), fit)
		if res.Metrics.RecoverySeconds <= 0 {
			t.Errorf("crash at %d: RecoverySeconds = %v, want > 0", crashIter, res.Metrics.RecoverySeconds)
		}
	}
}

func TestDriverCrashResumeSpark(t *testing.T) {
	rows := dataset.Rows(lowRankSparse(150, 40, 3, 11))
	fit := func(opt Options) (*Result, error) {
		return FitSpark(testCtxSpark(), rows, 40, opt)
	}
	for _, crashIter := range []int{2, 3, 6} {
		_, res := crashResume(t, crashIter, 2, t.TempDir(), fit)
		if res.Metrics.RecoverySeconds <= 0 {
			t.Errorf("crash at %d: RecoverySeconds = %v, want > 0", crashIter, res.Metrics.RecoverySeconds)
		}
	}
}

func TestDriverCrashResumeLocal(t *testing.T) {
	y := lowRankSparse(150, 40, 3, 11)
	fit := func(opt Options) (*Result, error) { return FitLocal(y, opt) }
	for _, crashIter := range []int{1, 3, 4} {
		crashResume(t, crashIter, 2, t.TempDir(), fit)
	}
}

func TestDriverCrashResumeStream(t *testing.T) {
	y := lowRankSparse(150, 40, 3, 11)
	fit := func(opt Options) (*Result, error) {
		return FitStream(matrix.SparseSource{M: y}, opt)
	}
	crashResume(t, 3, 2, t.TempDir(), fit)
}

// TestCheckpointDisabledZeroMetrics pins the zero-cost property of the
// disabled subsystem: no files, no bytes, no restarts. Bit-identity of the
// model itself is pinned by the golden-fingerprint suite.
func TestCheckpointDisabledZeroMetrics(t *testing.T) {
	rows := dataset.Rows(lowRankSparse(150, 40, 3, 11))
	opt := DefaultOptions(3)
	opt.MaxIter = 4
	opt.Tol = 0
	res, err := FitMapReduce(testEngineMR(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CheckpointBytes != 0 || m.CheckpointSeconds != 0 || m.DriverRestarts != 0 || m.RecoverySeconds != 0 {
		t.Fatalf("checkpoint-disabled run has durability metrics: %+v", m)
	}
}

func TestCheckFiniteDetectsBreakdown(t *testing.T) {
	opt := DefaultOptions(2)
	em := newEMDriver(opt, 10, 4, make([]float64, 4), 1)
	if err := em.checkFinite(3); err != nil {
		t.Fatalf("fresh driver: %v", err)
	}
	em.c.Data[1] = math.NaN()
	err := em.checkFinite(3)
	var bd *BreakdownError
	if !errors.As(err, &bd) || bd.Iter != 3 || bd.Quantity != "components" {
		t.Fatalf("NaN component: got %v", err)
	}
	if !errors.Is(err, ErrNumericalBreakdown) {
		t.Fatal("BreakdownError must unwrap to ErrNumericalBreakdown")
	}
	em.c.Data[1] = math.Inf(-1)
	if err := em.checkFinite(1); !errors.As(err, &bd) {
		t.Fatalf("-Inf component: got %v", err)
	}
	em.c.Data[1] = 0
	em.ss = -0.5
	if err := em.checkFinite(2); !errors.As(err, &bd) || bd.Quantity != "noise variance" {
		t.Fatalf("negative ss: got %v", err)
	}
}

// TestSolveGuardedRidgeRetry drives the escalating-ridge retry with a
// genuinely singular XtX: the zero matrix fails Cholesky and the general
// inverse, and the first deterministic ridge (1e-10·I at ridgeScale floor 1)
// makes it SPD.
func TestSolveGuardedRidgeRetry(t *testing.T) {
	opt := DefaultOptions(2)
	em := newEMDriver(opt, 10, 3, make([]float64, 3), 1)
	xtx := matrix.NewDense(2, 2)
	ytx := matrix.NewDense(3, 2)
	for i := range ytx.Data {
		ytx.Data[i] = float64(i + 1)
	}
	dst := matrix.NewDense(3, 2)
	if err := em.solveGuarded(xtx, ytx, dst, &matrix.SPDWorkspace{}); err != nil {
		t.Fatalf("guarded solve of singular XtX: %v", err)
	}
	if em.iterRidgeRetries < 1 {
		t.Errorf("iterRidgeRetries = %d, want >= 1", em.iterRidgeRetries)
	}
	if em.lastRidge <= 0 {
		t.Errorf("lastRidge = %v, want > 0", em.lastRidge)
	}
	for _, v := range dst.Data {
		if v != v || math.IsInf(v, 0) {
			t.Fatalf("ridge-recovered solution is non-finite: %v", dst.Data)
		}
	}
}

// TestSolveGuardedStandingRidge checks that a rollback-escalated ridge level
// is applied up front and recorded in lastRidge even when the solve succeeds
// immediately.
func TestSolveGuardedStandingRidge(t *testing.T) {
	opt := DefaultOptions(2)
	em := newEMDriver(opt, 10, 3, make([]float64, 3), 1)
	em.ridgeLevel = 2
	xtx := matrix.NewDense(2, 2)
	xtx.Data[0], xtx.Data[3] = 4, 9
	ytx := matrix.NewDense(3, 2)
	ytx.Data[0] = 1
	dst := matrix.NewDense(3, 2)
	if err := em.solveGuarded(xtx, ytx, dst, &matrix.SPDWorkspace{}); err != nil {
		t.Fatal(err)
	}
	want := (4.0 + 9.0) / 2 * 1e-6 * 10 // ridgeScale · 1e-6 · 10^(level-1)
	if em.lastRidge != want {
		t.Errorf("standing ridge = %v, want %v", em.lastRidge, want)
	}
	if em.iterRidgeRetries != 0 {
		t.Errorf("iterRidgeRetries = %d, want 0 for a clean solve", em.iterRidgeRetries)
	}
}

// TestObserveDivergenceRollback walks the guard through a rising-error run:
// best-model tracking, the rollback after DivergeWindow consecutive rises,
// and the ridge escalation it leaves behind.
func TestObserveDivergenceRollback(t *testing.T) {
	opt := DefaultOptions(2)
	opt.DivergeWindow = 2
	em := newEMDriver(opt, 10, 4, make([]float64, 4), 1)
	em.ss = 0.5
	bestVal := em.c.Data[0]

	var hist []IterationStat
	step := func(iter int, errV float64) *IterationStat {
		s := IterationStat{Iter: iter, Err: errV}
		em.observeDivergence(&s, opt, hist)
		hist = append(hist, s)
		return &hist[len(hist)-1]
	}

	step(1, 1.0) // recorded as best
	if !em.haveBest || em.bestErr != 1.0 {
		t.Fatalf("best not recorded: haveBest=%v bestErr=%v", em.haveBest, em.bestErr)
	}
	em.c.Data[0] = bestVal + 100 // the model drifts while the error rises
	em.ss = 9
	step(2, 2.0)
	if em.rising != 1 {
		t.Fatalf("rising = %d, want 1", em.rising)
	}
	s3 := step(3, 3.0)
	if !s3.Rollback {
		t.Fatal("third consecutive rise did not roll back")
	}
	if em.c.Data[0] != bestVal || em.ss != 0.5 {
		t.Errorf("rollback did not restore best model: c=%v ss=%v", em.c.Data[0], em.ss)
	}
	if em.ridgeLevel != 1 || em.rising != 0 {
		t.Errorf("post-rollback guard state: ridgeLevel=%d rising=%d", em.ridgeLevel, em.rising)
	}

	// A lower error after the rollback becomes the new best.
	em.c.Data[0] = bestVal + 1
	step(4, 0.7)
	if em.bestErr != 0.7 || em.bestC.Data[0] != bestVal+1 {
		t.Errorf("new best not recorded: bestErr=%v", em.bestErr)
	}
}

// TestRollbackIsDeterministic reruns a fit whose guard is armed and asserts
// bit-identical history — the guard must not introduce any run-to-run
// variation.
func TestGuardArmedDeterministic(t *testing.T) {
	y := lowRankSparse(150, 40, 3, 11)
	opt := DefaultOptions(3)
	opt.MaxIter = 8
	opt.Tol = 0
	opt.DivergeWindow = 2
	a, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("guard-armed fit is not deterministic")
	}
}

// TestPrepareFormsCtCAfterRollback: prepare starts M from the CᵀC that
// update formed for the new C, so a rollback, which writes C, must make the
// next prepare form CᵀC again. M must equal a fresh CᵀC + ss·I bit for bit
// after a plain iteration and after a rollback.
func TestPrepareFormsCtCAfterRollback(t *testing.T) {
	rng := matrix.NewRNG(5)
	y := randomSparseMat(rng, 60, 24, 0.3)
	opt := DefaultOptions(4)
	opt.DivergeWindow = 1
	mean := y.ColMeans()
	em := newEMDriver(opt, y.R, y.C, mean, y.CenteredFrobeniusSq(mean))
	scr := newLocalScratch(y.C, em.d)
	var hist []IterationStat
	iterate := func(errV float64) {
		if err := em.prepare(); err != nil {
			t.Fatal(err)
		}
		cNew, err := em.update(localPass(y, em, scr))
		if err != nil {
			t.Fatal(err)
		}
		em.finishVariance(localSS3(y, em, cNew, scr))
		s := IterationStat{Iter: len(hist) + 1, Err: errV}
		em.observeDivergence(&s, opt, hist)
		hist = append(hist, s)
	}
	checkM := func(name string) {
		if err := em.prepare(); err != nil {
			t.Fatal(err)
		}
		want := em.c.MulT(em.c)
		addDiag(want, em.ss)
		sameBits(t, name, em.mWork.Data, want.Data)
	}
	iterate(1)
	checkM("M after an iteration")
	iterate(2) // the error rose: back to the first iteration's C
	if !hist[1].Rollback {
		t.Fatal("a rise over a one-iteration window did not roll back")
	}
	checkM("M after a rollback")
}
