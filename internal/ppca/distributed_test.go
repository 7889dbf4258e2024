package ppca

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
)

func testEngineMR() *mapred.Engine {
	return mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
}

func testCtxSpark() *rdd.Context {
	return rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
}

func testRows(t *testing.T, n, dims, rank int, seed uint64) ([]matrix.SparseVector, *matrix.Sparse) {
	t.Helper()
	y := lowRankSparse(n, dims, rank, seed)
	return dataset.Rows(y), y
}

func TestFitMapReduceMatchesLocal(t *testing.T) {
	rows, y := testRows(t, 150, 40, 3, 11)
	opt := DefaultOptions(3)
	opt.MaxIter = 15
	opt.Tol = 1e-9

	local, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := FitMapReduce(testEngineMR(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Same math, same seed: identical results up to floating-point
	// reassociation in the parallel sums.
	if gap := matrix.SubspaceGap(local.Components, mr.Components); gap > 1e-6 {
		t.Fatalf("MapReduce subspace differs from local: gap %v", gap)
	}
	if diff := local.SS - mr.SS; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SS differs: %v vs %v", local.SS, mr.SS)
	}
}

func TestFitSparkMatchesLocal(t *testing.T) {
	rows, y := testRows(t, 150, 40, 3, 12)
	opt := DefaultOptions(3)
	opt.MaxIter = 15
	opt.Tol = 1e-9

	local, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := FitSpark(testCtxSpark(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(local.Components, sp.Components); gap > 1e-6 {
		t.Fatalf("Spark subspace differs from local: gap %v", gap)
	}
}

func TestMapReduceUnoptimizedMatchesOptimized(t *testing.T) {
	rows, _ := testRows(t, 100, 30, 3, 13)
	opt := DefaultOptions(3)
	opt.MaxIter = 5
	opt.Tol = 0

	fast, err := FitMapReduce(testEngineMR(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.MinimizeIntermediate = false
	naive, err := FitMapReduce(testEngineMR(), rows, 30, slow)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-6 {
		t.Fatalf("unoptimized pipeline changed the math: gap %v", gap)
	}
}

func TestMapReduceNoMeanPropagationMatches(t *testing.T) {
	rows, _ := testRows(t, 100, 30, 3, 14)
	opt := DefaultOptions(3)
	opt.MaxIter = 5
	opt.Tol = 0

	fast, err := FitMapReduce(testEngineMR(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense := opt
	dense.MeanPropagation = false
	naive, err := FitMapReduce(testEngineMR(), rows, 30, dense)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-6 {
		t.Fatalf("mean propagation changed the math: gap %v", gap)
	}
}

func TestSparkNoMeanPropagationMatches(t *testing.T) {
	rows, _ := testRows(t, 80, 25, 3, 15)
	opt := DefaultOptions(3)
	opt.MaxIter = 4
	opt.Tol = 0

	fast, err := FitSpark(testCtxSpark(), rows, 25, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense := opt
	dense.MeanPropagation = false
	naive, err := FitSpark(testCtxSpark(), rows, 25, dense)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-6 {
		t.Fatalf("spark mean propagation changed the math: gap %v", gap)
	}
}

func TestSparkUnoptimizedMatches(t *testing.T) {
	rows, _ := testRows(t, 80, 25, 3, 16)
	opt := DefaultOptions(3)
	opt.MaxIter = 4
	opt.Tol = 0

	fast, err := FitSpark(testCtxSpark(), rows, 25, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.MinimizeIntermediate = false
	naive, err := FitSpark(testCtxSpark(), rows, 25, slow)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-6 {
		t.Fatalf("spark unoptimized pipeline changed the math: gap %v", gap)
	}
}

// The headline claims: each optimization must reduce the cost the paper says
// it reduces.

func TestMeanPropagationReducesComputeAndShuffle(t *testing.T) {
	// Sparse data: tweets-like.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 400, Cols: 300, Seed: 17})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	opt.Tol = 0

	fastEng := testEngineMR()
	if _, err := FitMapReduce(fastEng, rows, 300, opt); err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.MeanPropagation = false
	slowEng := testEngineMR()
	if _, err := FitMapReduce(slowEng, rows, 300, slow); err != nil {
		t.Fatal(err)
	}
	fm, sm := fastEng.Cluster.Metrics(), slowEng.Cluster.Metrics()
	if fm.ComputeOps*5 > sm.ComputeOps {
		t.Fatalf("mean propagation should slash compute on sparse data: %d vs %d", fm.ComputeOps, sm.ComputeOps)
	}
	if fm.ShuffleBytes*2 > sm.ShuffleBytes {
		t.Fatalf("mean propagation should slash shuffle: %d vs %d", fm.ShuffleBytes, sm.ShuffleBytes)
	}
	if fm.SimSeconds >= sm.SimSeconds {
		t.Fatalf("mean propagation should be faster: %.2fs vs %.2fs", fm.SimSeconds, sm.SimSeconds)
	}
}

func TestMinimizeIntermediateReducesShuffle(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 600, Cols: 200, Seed: 18})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	opt.Tol = 0

	fastEng := testEngineMR()
	if _, err := FitMapReduce(fastEng, rows, 200, opt); err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.MinimizeIntermediate = false
	slowEng := testEngineMR()
	if _, err := FitMapReduce(slowEng, rows, 200, slow); err != nil {
		t.Fatal(err)
	}
	fm, sm := fastEng.Cluster.Metrics(), slowEng.Cluster.Metrics()
	if fm.ShuffleBytes >= sm.ShuffleBytes {
		t.Fatalf("recompute-X should reduce shuffle: %d vs %d", fm.ShuffleBytes, sm.ShuffleBytes)
	}
	if fm.SimSeconds >= sm.SimSeconds {
		t.Fatalf("recompute-X should be faster: %.2fs vs %.2fs", fm.SimSeconds, sm.SimSeconds)
	}
}

func TestEfficientFrobeniusReducesCompute(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 500, Cols: 400, Seed: 19})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 1
	opt.Tol = 0

	fastEng := testEngineMR()
	if _, err := FitMapReduce(fastEng, rows, 400, opt); err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.EfficientFrobenius = false
	slowEng := testEngineMR()
	if _, err := FitMapReduce(slowEng, rows, 400, slow); err != nil {
		t.Fatal(err)
	}
	fnormOps := func(e *mapred.Engine) int64 {
		for _, p := range e.Cluster.PhaseLog() {
			if p.Name == "FnormJob/map" {
				return p.ComputeOps
			}
		}
		t.Fatal("FnormJob phase not found")
		return 0
	}
	fo, so := fnormOps(fastEng), fnormOps(slowEng)
	if fo*5 > so {
		t.Fatalf("Algorithm 3 should slash Frobenius ops: %d vs %d", fo, so)
	}
}

func TestSparkGeneratesLessIntermediateDataThanItWould(t *testing.T) {
	// The Spark path's accumulator traffic per iteration is O(z·d), far
	// below materializing X (N·d) for sparse data.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 800, Cols: 150, Seed: 20})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	opt.Tol = 0

	fastCtx := testCtxSpark()
	if _, err := FitSpark(fastCtx, rows, 150, opt); err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.MinimizeIntermediate = false
	slowCtx := testCtxSpark()
	if _, err := FitSpark(slowCtx, rows, 150, slow); err != nil {
		t.Fatal(err)
	}
	fm, sm := fastCtx.Cluster().Metrics(), slowCtx.Cluster().Metrics()
	if fm.SimSeconds >= sm.SimSeconds {
		t.Fatalf("optimized spark should be faster: %.2f vs %.2f", fm.SimSeconds, sm.SimSeconds)
	}
	if fm.DiskBytes >= sm.DiskBytes {
		t.Fatalf("optimized spark should touch less disk: %d vs %d", fm.DiskBytes, sm.DiskBytes)
	}
}

func TestSparkDriverMemoryStaysSmall(t *testing.T) {
	// sPCA-Spark driver memory is O(D·d), not O(D²) — the Figure 8 claim.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 300, Cols: 500, Seed: 21})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	ctx := testCtxSpark()
	if _, err := FitSpark(ctx, rows, 500, opt); err != nil {
		t.Fatal(err)
	}
	peak := ctx.Cluster().Metrics().DriverPeak
	dd := int64(500 * 500 * 8)
	if peak >= dd {
		t.Fatalf("driver peak %d should be far below D² bytes %d", peak, dd)
	}
}

func TestFitMapReduceWithFailureInjection(t *testing.T) {
	rows, _ := testRows(t, 120, 30, 3, 22)
	opt := DefaultOptions(3)
	opt.MaxIter = 3
	opt.Tol = 0
	eng := testEngineMR()
	eng.Faults = &cluster.FaultPlan{Seed: 7, TaskFailureRate: 0.2}
	// At 0.2 per attempt a task terminally fails with p = 0.2^12 ≈ 4e-9, so
	// the fit exercises retries without ever hitting ErrTaskFailed.
	eng.MaxAttempts = 12
	res, err := FitMapReduce(eng, rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Cluster.Metrics(); m.FailedAttempts == 0 || m.RecoverySeconds <= 0 {
		t.Fatalf("no recovery charged at 20%% failure rate: %+v", m)
	}
	// Failures slow things down but never change the answer.
	clean, err := FitMapReduce(testEngineMR(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(res.Components, clean.Components); gap > 1e-9 {
		t.Fatalf("failure injection changed results: gap %v", gap)
	}
}

func TestSparkSmartGuess(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 1000, Cols: 100, Seed: 23})
	rows := dataset.Rows(y)
	opt := DefaultOptions(4)
	opt.MaxIter = 1
	opt.Tol = 0
	plain, err := FitSpark(testCtxSpark(), rows, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	sg := opt
	sg.SmartGuess = true
	smart, err := FitSpark(testCtxSpark(), rows, 100, sg)
	if err != nil {
		t.Fatal(err)
	}
	if smart.History[0].Err >= plain.History[0].Err {
		t.Fatalf("spark smart guess not better after 1 iter: %v vs %v",
			smart.History[0].Err, plain.History[0].Err)
	}
}

func TestHistorySimSecondsMonotonic(t *testing.T) {
	rows, _ := testRows(t, 100, 30, 3, 24)
	opt := DefaultOptions(3)
	opt.MaxIter = 4
	opt.Tol = 0
	res, err := FitMapReduce(testEngineMR(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].SimSeconds <= res.History[i-1].SimSeconds {
			t.Fatalf("sim time not monotonic: %+v", res.History)
		}
	}
	if res.Metrics.SimSeconds <= 0 {
		t.Fatal("metrics not populated")
	}
}

func TestStatefulCombinerReducesShuffle(t *testing.T) {
	// Enough rows per map task that in-mapper accumulation pays off.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 6000, Cols: 200, Seed: 25})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	opt.Tol = 0

	withEng := testEngineMR()
	with, err := FitMapReduce(withEng, rows, 200, opt)
	if err != nil {
		t.Fatal(err)
	}
	naive := opt
	naive.StatefulCombiner = false
	withoutEng := testEngineMR()
	without, err := FitMapReduce(withoutEng, rows, 200, naive)
	if err != nil {
		t.Fatal(err)
	}
	// Identical math...
	if gap := matrix.SubspaceGap(with.Components, without.Components); gap > 1e-6 {
		t.Fatalf("stateful combiner changed the math: gap %v", gap)
	}
	// ...but far more mapper output without it.
	ws, ns := withEng.Cluster.Metrics().ShuffleBytes, withoutEng.Cluster.Metrics().ShuffleBytes
	if ws*2 >= ns {
		t.Fatalf("stateful combiner should slash shuffle: %d vs %d", ws, ns)
	}
}

func TestAssociativeSS3ReducesCompute(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 800, Cols: 400, Seed: 26})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxIter = 2
	opt.Tol = 0

	fastEng := testEngineMR()
	fast, err := FitMapReduce(fastEng, rows, 400, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.AssociativeSS3 = false
	slowEng := testEngineMR()
	naive, err := FitMapReduce(slowEng, rows, 400, slow)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-9 {
		t.Fatalf("associativity changed the math: gap %v", gap)
	}
	ss3Ops := func(e *mapred.Engine) int64 {
		var ops int64
		for _, p := range e.Cluster.PhaseLog() {
			if p.Name == "ss3Job/map" {
				ops += p.ComputeOps
			}
		}
		return ops
	}
	fo, so := ss3Ops(fastEng), ss3Ops(slowEng)
	if fo*3 >= so {
		t.Fatalf("associative ss3 should slash compute: %d vs %d", fo, so)
	}
}

func TestSparkAssociativeSS3Matches(t *testing.T) {
	rows, _ := testRows(t, 100, 30, 3, 27)
	opt := DefaultOptions(3)
	opt.MaxIter = 3
	opt.Tol = 0
	fast, err := FitSpark(testCtxSpark(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow := opt
	slow.AssociativeSS3 = false
	naive, err := FitSpark(testCtxSpark(), rows, 30, slow)
	if err != nil {
		t.Fatal(err)
	}
	if gap := matrix.SubspaceGap(fast.Components, naive.Components); gap > 1e-9 {
		t.Fatalf("spark associativity changed the math: gap %v", gap)
	}
}
