package spca

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

func smallDataset(t *testing.T) *Sparse {
	t.Helper()
	return GenerateDataset(DatasetSpec{Kind: Diabetes, Rows: 120, Cols: 40, Rank: 3, Seed: 5})
}

func TestFitAllAlgorithmsProduceComponents(t *testing.T) {
	y := smallDataset(t)
	for _, alg := range []Algorithm{LocalPPCA, SPCAMapReduce, SPCASpark, MahoutPCA, MLlibPCA} {
		res, err := Fit(y, Config{Algorithm: alg, Components: 3, MaxIter: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Components.R != 40 || res.Components.C != 3 {
			t.Fatalf("%s: components %dx%d", alg, res.Components.R, res.Components.C)
		}
		if len(res.Mean) != 40 {
			t.Fatalf("%s: mean len %d", alg, len(res.Mean))
		}
		if res.Algorithm != alg {
			t.Fatalf("%s: result tagged %s", alg, res.Algorithm)
		}
	}
}

func TestFitAlgorithmsAgreeOnSubspace(t *testing.T) {
	y := smallDataset(t)
	gap := func(a, b *Dense) float64 {
		qa, qb := a.Clone(), b.Clone()
		matrix.GramSchmidt(qa)
		matrix.GramSchmidt(qb)
		_, s, _ := matrix.SVD(qa.MulT(qb))
		min := 1.0
		for _, v := range s {
			if v < min {
				min = v
			}
		}
		return 1 - min
	}
	exact, err := Fit(y, Config{Algorithm: MLlibPCA, Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, MahoutPCA} {
		res, err := Fit(y, Config{Algorithm: alg, Components: 3, MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		if g := gap(res.Components, exact.Components); g > 0.05 {
			t.Fatalf("%s disagrees with exact PCA: gap %v", alg, g)
		}
	}
}

func TestFitDefaultsApplied(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Components default 50 clamps to D=40.
	if res.Components.C != 40 {
		t.Fatalf("default components = %d", res.Components.C)
	}
	if res.Algorithm != SPCASpark {
		t.Fatalf("default algorithm = %s", res.Algorithm)
	}
}

func TestFitUnknownAlgorithm(t *testing.T) {
	y := smallDataset(t)
	if _, err := Fit(y, Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMLlibOOMSurfacesThroughFacade(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 100, Cols: 600, Seed: 6})
	_, err := Fit(y, Config{
		Algorithm:  MLlibPCA,
		Components: 5,
		Cluster:    ClusterConfig{DriverMemoryGB: 600 * 600 * 8 * 1.5 / float64(1<<30)},
	})
	if !errors.Is(err, cluster.ErrDriverOOM) {
		t.Fatalf("expected driver OOM, got %v", err)
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 3, MaxIter: 10, TargetAccuracy: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if last.Accuracy < 0.9 {
		t.Fatalf("accuracy %v below target", last.Accuracy)
	}
}

func TestTransformAndReconstruct(t *testing.T) {
	y := smallDataset(t)
	for _, alg := range []Algorithm{SPCASpark, MLlibPCA} {
		res, err := Fit(y, Config{Algorithm: alg, Components: 3, MaxIter: 20})
		if err != nil {
			t.Fatal(err)
		}
		x, err := res.Transform(y)
		if err != nil {
			t.Fatal(err)
		}
		if x.R != y.R || x.C != 3 {
			t.Fatalf("%s: latent %dx%d", alg, x.R, x.C)
		}
		recon, err := res.Reconstruct(x)
		if err != nil {
			t.Fatal(err)
		}
		rel := recon.Sub(y.Dense()).Norm1() / y.Dense().Norm1()
		if rel > 0.3 {
			t.Fatalf("%s: reconstruction error %v", alg, rel)
		}
		if _, err := res.Transform(matrix.NewSparse(3, 7)); err == nil {
			t.Fatal("expected dims error")
		}
	}
}

func TestSmartGuessConfig(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 800, Cols: 120, Seed: 7})
	plain, err := Fit(y, Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := Fit(y, Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 1, SmartGuess: true})
	if err != nil {
		t.Fatal(err)
	}
	if smart.History[0].Err >= plain.History[0].Err {
		t.Fatalf("smart guess did not help: %v vs %v", smart.History[0].Err, plain.History[0].Err)
	}
}

func TestHeadlineComparison(t *testing.T) {
	// The paper's core claims on sparse data: sPCA beats both baselines in
	// simulated running time, and — the 3,511x intermediate-data result —
	// sPCA's shuffle volume is bounded by O(D·d) per task while Mahout's
	// grows linearly with N.
	fitAt := func(alg Algorithm, n int) *Result {
		y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: n, Cols: 200, Seed: 8})
		res, err := Fit(y, Config{Algorithm: alg, Components: 10, MaxIter: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	spark := fitAt(SPCASpark, 24000)
	mr := fitAt(SPCAMapReduce, 24000)
	mahout := fitAt(MahoutPCA, 24000)

	if mr.Metrics.SimSeconds >= mahout.Metrics.SimSeconds {
		t.Fatalf("sPCA-MapReduce (%.0fs) should beat Mahout-PCA (%.0fs)",
			mr.Metrics.SimSeconds, mahout.Metrics.SimSeconds)
	}
	if spark.Metrics.SimSeconds >= mr.Metrics.SimSeconds {
		t.Fatalf("sPCA-Spark (%.0fs) should beat sPCA-MapReduce (%.0fs)",
			spark.Metrics.SimSeconds, mr.Metrics.SimSeconds)
	}

	// Scaling shape: quadruple N and compare intermediate-data growth.
	mrSmall := fitAt(SPCAMapReduce, 6000)
	mahoutSmall := fitAt(MahoutPCA, 6000)
	mrGrowth := float64(mr.Metrics.ShuffleBytes) / float64(mrSmall.Metrics.ShuffleBytes)
	mahoutGrowth := float64(mahout.Metrics.ShuffleBytes) / float64(mahoutSmall.Metrics.ShuffleBytes)
	if mrGrowth > 2 {
		t.Fatalf("sPCA shuffle should be ~flat in N, grew %.1fx", mrGrowth)
	}
	if mahoutGrowth < 2.5 {
		t.Fatalf("Mahout shuffle should grow ~linearly in N, grew %.1fx", mahoutGrowth)
	}
	if mr.Metrics.ShuffleBytes >= mahout.Metrics.ShuffleBytes {
		t.Fatalf("sPCA shuffle (%d) should be below Mahout's (%d)",
			mr.Metrics.ShuffleBytes, mahout.Metrics.ShuffleBytes)
	}
}

func TestIdealErrorExported(t *testing.T) {
	y := smallDataset(t)
	e := IdealError(y, 3, 0)
	if e <= 0 || e >= 1 {
		t.Fatalf("ideal error %v", e)
	}
}

func TestSparseFileRoundTrip(t *testing.T) {
	y := smallDataset(t)
	dir := t.TempDir()
	for _, binary := range []bool{false, true} {
		path := filepath.Join(dir, "m.spmx")
		if err := SaveSparseFile(path, y, binary); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSparseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dense().MaxAbsDiff(y.Dense()) != 0 {
			t.Fatalf("round trip (binary=%v) corrupted data", binary)
		}
	}
	if _, err := LoadSparseFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSVDBidiagFacade(t *testing.T) {
	y := smallDataset(t) // 120 x 40
	res, err := Fit(y, Config{Algorithm: SVDBidiag, Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components.R != 40 || res.Components.C != 3 {
		t.Fatalf("components %dx%d", res.Components.R, res.Components.C)
	}
	// Deterministic pipeline: must match MLlib's exact PCA subspace.
	exact, err := Fit(y, Config{Algorithm: MLlibPCA, Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := res.Components.Clone(), exact.Components.Clone()
	matrix.GramSchmidt(qa)
	matrix.GramSchmidt(qb)
	_, s, _ := matrix.SVD(qa.MulT(qb))
	if s[len(s)-1] < 1-1e-6 {
		t.Fatalf("SVD-Bidiag disagrees with exact PCA: %v", s)
	}
}

func TestExplainedVariance(t *testing.T) {
	y := smallDataset(t) // planted rank 3
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 3, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := res.ExplainedVariance(y)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 3 {
		t.Fatalf("len = %d", len(ev))
	}
	// Cumulative, in (0, 1], and rank-3 data is mostly explained by 3 PCs.
	prev := 0.0
	for _, v := range ev {
		if v < prev || v > 1+1e-9 {
			t.Fatalf("not a cumulative fraction: %v", ev)
		}
		prev = v
	}
	if ev[2] < 0.9 {
		t.Fatalf("rank-3 data should be >90%% explained by 3 PCs: %v", ev)
	}
	if _, err := res.ExplainedVariance(matrix.NewSparse(2, 5)); err == nil {
		t.Fatal("expected dims error")
	}
}

func TestFitStreamFileFacade(t *testing.T) {
	y := smallDataset(t)
	path := filepath.Join(t.TempDir(), "y.spmx")
	if err := SaveSparseFile(path, y, false); err != nil {
		t.Fatal(err)
	}
	res, err := FitStreamFileConfig(path, Config{Components: 3, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components.R != 40 || res.Components.C != 3 {
		t.Fatalf("components %dx%d", res.Components.R, res.Components.C)
	}
	// Must agree with the in-memory fit bit for bit (same seed, same math).
	ref, err := Fit(y, Config{Algorithm: LocalPPCA, Components: 3, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components.MaxAbsDiff(ref.Components) != 0 {
		t.Fatal("streamed fit differs from in-memory fit")
	}
	if _, err := FitStreamFileConfig(filepath.Join(t.TempDir(), "missing"), Config{Components: 3, MaxIter: 5}); err == nil {
		t.Fatal("expected error for missing file")
	}
	// A corrupt file, and a truncated one whose triplets fall short of its
	// header's nnz, fail as ReadSparse fails them.
	for name, text := range map[string]string{
		"corrupt":   "not a matrix\n",
		"truncated": "spmx 3 3 4\n0 0 1\n1 1 1\n2 2 1\n",
	} {
		bad := filepath.Join(t.TempDir(), name+".spmx")
		if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := FitStreamFileConfig(bad, Config{Components: 2, MaxIter: 5}); !errors.Is(err, ErrMalformedMatrix) {
			t.Fatalf("%s file = %v, want ErrMalformedMatrix", name, err)
		}
	}
}

func TestFitInputValidation(t *testing.T) {
	y := smallDataset(t)
	cfg := Config{Algorithm: LocalPPCA, Components: 3, MaxIter: 3}

	if _, err := Fit(nil, cfg); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("Fit(nil) = %v, want ErrEmptyInput", err)
	}
	if _, err := Fit(matrix.NewSparse(0, 10), cfg); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("Fit(0 rows) = %v, want ErrEmptyInput", err)
	}
	if _, err := Fit(matrix.NewSparse(10, 0), cfg); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("Fit(0 cols) = %v, want ErrEmptyInput", err)
	}

	b := matrix.NewSparseBuilder(4)
	b.AddRow([]int{0, 2}, []float64{1, nan()})
	bad := b.Build()
	if _, err := Fit(bad, cfg); !errors.Is(err, ErrNonFiniteInput) {
		t.Fatalf("Fit(NaN value) = %v, want ErrNonFiniteInput", err)
	}

	for name, broken := range map[string]Config{
		"accuracy too high":    {Algorithm: LocalPPCA, Components: 3, TargetAccuracy: 1.5},
		"accuracy negative":    {Algorithm: LocalPPCA, Components: 3, TargetAccuracy: -0.1},
		"negative interval":    {Algorithm: LocalPPCA, Components: 3, Checkpoint: CheckpointSpec{Interval: -1, Dir: "x"}},
		"interval without dir": {Algorithm: LocalPPCA, Components: 3, Checkpoint: CheckpointSpec{Interval: 2}},
		"negative window":      {Algorithm: LocalPPCA, Components: 3, DivergeWindow: -1},
	} {
		if _, err := Fit(y, broken); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Fit = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestTolConfig(t *testing.T) {
	y := smallDataset(t)
	// Tol < 0 disables early stop: the fit must run all MaxIter rounds.
	res, err := Fit(y, Config{Algorithm: LocalPPCA, Components: 3, MaxIter: 8, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 8 {
		t.Fatalf("Tol<0 stopped early at %d iterations", res.Iterations)
	}
	// A very loose Tol stops well before MaxIter.
	res, err = Fit(y, Config{Algorithm: LocalPPCA, Components: 3, MaxIter: 50, Tol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 50 {
		t.Fatalf("loose Tol did not stop early (%d iterations)", res.Iterations)
	}
}

func nan() float64 { return math.NaN() }
