package ppca

import (
	"testing"

	"spca/internal/accuracy"
	"spca/internal/dataset"
	"spca/internal/matrix"
)

// lowRankSparse generates a planted low-rank sparse matrix for fit tests.
func lowRankSparse(n, dims, rank int, seed uint64) *matrix.Sparse {
	return dataset.MustGenerate(dataset.Spec{
		Kind: dataset.KindDiabetes, Rows: n, Cols: dims, Rank: rank, Seed: seed,
	})
}

func TestFitLocalRecoversPlantedSubspace(t *testing.T) {
	y := lowRankSparse(200, 60, 4, 1)
	opt := DefaultOptions(4)
	opt.MaxIter = 60
	opt.Tol = 1e-9
	res, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Exact PCA subspace from the dense SVD of the centered matrix.
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), 4)
	gap := matrix.SubspaceGap(res.Components, v)
	if gap > 0.02 {
		t.Fatalf("PPCA subspace gap vs exact PCA = %v", gap)
	}
}

func TestFitLocalErrorDecreases(t *testing.T) {
	y := lowRankSparse(150, 40, 3, 2)
	opt := DefaultOptions(3)
	opt.MaxIter = 20
	opt.Tol = 0 // run all iterations
	res, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 3 {
		t.Fatalf("history too short: %d", len(res.History))
	}
	first := res.History[0].Err
	last := res.History[len(res.History)-1].Err
	if last >= first {
		t.Fatalf("error did not decrease: %v -> %v", first, last)
	}
	if last > 0.5 {
		t.Fatalf("final error too high: %v", last)
	}
}

func TestFitLocalValidation(t *testing.T) {
	y := lowRankSparse(10, 5, 2, 3)
	if _, err := FitLocal(y, DefaultOptions(0)); err == nil {
		t.Fatal("expected error for zero components")
	}
	if _, err := FitLocal(y, DefaultOptions(6)); err == nil {
		t.Fatal("expected error for d > D")
	}
	bad := DefaultOptions(2)
	bad.MaxIter = 0
	if _, err := FitLocal(y, bad); err == nil {
		t.Fatal("expected error for MaxIter 0")
	}
	empty := matrix.NewSparse(0, 5)
	if _, err := FitLocal(empty, DefaultOptions(2)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestFitLocalDeterministic(t *testing.T) {
	y := lowRankSparse(80, 30, 3, 4)
	opt := DefaultOptions(3)
	a, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Components.MaxAbsDiff(b.Components) != 0 || a.SS != b.SS {
		t.Fatal("FitLocal not deterministic")
	}
}

func TestFitLocalStopsOnTolerance(t *testing.T) {
	y := lowRankSparse(100, 30, 2, 5)
	opt := DefaultOptions(2)
	opt.MaxIter = 100
	opt.Tol = 0.05
	res, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100 {
		t.Fatalf("tolerance stop never fired (%d iterations)", res.Iterations)
	}
}

func TestFitLocalTargetAccuracyStop(t *testing.T) {
	y := lowRankSparse(120, 30, 3, 6)
	opt := DefaultOptions(3)
	opt.MaxIter = 50
	opt.Tol = 0
	opt.IdealError = accuracy.Ideal(y, 3, opt.Seed)
	opt.TargetAccuracy = 0.95
	res, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if last.Accuracy < 0.95 {
		t.Fatalf("final accuracy %v below target", last.Accuracy)
	}
	if res.Iterations == 50 {
		t.Log("warning: accuracy target only reached at iteration cap")
	}
}

func TestSmartGuessConvergesFaster(t *testing.T) {
	y := lowRankSparse(600, 50, 4, 7)
	base := DefaultOptions(4)
	base.MaxIter = 1
	base.Tol = 0
	plain, err := FitLocal(y, base)
	if err != nil {
		t.Fatal(err)
	}
	sg := base
	sg.SmartGuess = true
	smart, err := FitLocal(y, sg)
	if err != nil {
		t.Fatal(err)
	}
	// After a single iteration on the full data, the smart-guess start must
	// be strictly better than the random start (§5.2, Figure 5).
	if smart.History[0].Err >= plain.History[0].Err {
		t.Fatalf("smart guess not better after 1 iter: %v vs %v",
			smart.History[0].Err, plain.History[0].Err)
	}
}

func TestIdealErrorBeatsEMError(t *testing.T) {
	y := lowRankSparse(150, 40, 3, 9)
	opt := DefaultOptions(3)
	ideal := accuracy.Ideal(y, 3, opt.Seed)
	if ideal <= 0 || ideal >= 1 {
		t.Fatalf("ideal error %v out of range", ideal)
	}
	opt.MaxIter = 2
	res, err := FitLocal(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	// An exact PCA cannot be worse than 2 EM iterations (allow tiny slack
	// for the sampled metric).
	if ideal > res.History[len(res.History)-1].Err+0.02 {
		t.Fatalf("ideal %v worse than EM %v", ideal, res.History[len(res.History)-1].Err)
	}
}

func TestSmartGuessSize(t *testing.T) {
	o := DefaultOptions(10)
	if got := smartGuessSize(o, 100000); got != 2000 {
		t.Fatalf("cap: %d", got)
	}
	if got := smartGuessSize(o, 300); got != 30 {
		t.Fatalf("tenth: %d", got)
	}
	if got := smartGuessSize(o, 50); got != 20 {
		t.Fatalf("min 2d: %d", got)
	}
	o.SmartGuessRows = 77
	if got := smartGuessSize(o, 1000); got != 77 {
		t.Fatalf("explicit: %d", got)
	}
}
