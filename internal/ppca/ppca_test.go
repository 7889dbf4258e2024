package ppca

import (
	"math"
	"testing"
	"testing/quick"

	"spca/internal/matrix"
)

// Property: the M-step solve satisfies the normal equations,
// C_new · XtX = YtX (with the mean correction applied).
func TestUpdateSolvesNormalEquations(t *testing.T) {
	f := func(seed uint16) bool {
		rng := matrix.NewRNG(uint64(seed) + 31337)
		n, dims, d := 20+int(seed)%30, 6+int(seed)%8, 2+int(seed)%3
		y := randomSparseMat(rng, n, dims, 0.4)
		mean := y.ColMeans()
		em := newEMDriver(DefaultOptions(d), n, dims, mean, y.CenteredFrobeniusSq(mean))
		if err := em.prepare(); err != nil {
			return false
		}
		sums := localPass(y, em, newLocalScratch(dims, d))
		// Build the corrected YtX and XtX the update solves against before
		// update applies the mean correction to sums.ytx in place.
		ytx := sums.ytx.Clone()
		for j, mj := range mean {
			if mj != 0 {
				matrix.AXPY(-mj, sums.sumX, ytx.Row(j))
			}
		}
		xtx := sums.xtx.Add(em.minv.Scale(em.ss))
		cNew, err := em.update(sums)
		if err != nil {
			return false
		}
		return cNew.Mul(xtx).MaxAbsDiff(ytx) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fitted noise variance is always positive and finite.
func TestVarianceAlwaysPositive(t *testing.T) {
	f := func(seed uint16) bool {
		rng := matrix.NewRNG(uint64(seed) + 777)
		n, dims := 15+int(seed)%20, 5+int(seed)%6
		y := randomSparseMat(rng, n, dims, 0.5)
		opt := DefaultOptions(2)
		opt.MaxIter = 4
		opt.Seed = uint64(seed)
		res, err := FitLocal(y, opt)
		if err != nil {
			return false
		}
		return res.SS > 0 && !math.IsNaN(res.SS) && !math.IsInf(res.SS, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sparse and dense paths of the consolidated pass agree — the
// localPass sums on a sparse matrix equal brute-force dense computation.
func TestLocalPassMatchesBruteForce(t *testing.T) {
	f := func(seed uint16) bool {
		rng := matrix.NewRNG(uint64(seed) + 4242)
		n, dims, d := 12+int(seed)%10, 5+int(seed)%5, 2
		y := randomSparseMat(rng, n, dims, 0.5)
		mean := y.ColMeans()
		em := newEMDriver(DefaultOptions(d), n, dims, mean, 1)
		if err := em.prepare(); err != nil {
			return false
		}
		sums := localPass(y, em, newLocalScratch(dims, d))

		// Brute force with dense matrices: X = Yc·CM, YtXc = Ycᵀ·X.
		yc := y.Dense().SubRowVec(mean)
		x := yc.Mul(em.cm)
		wantYtXc := yc.MulT(x)
		wantXtX := x.MulT(x)

		// localPass returns the mean-uncorrected YtX; correct it here.
		ytx := sums.ytx.Clone()
		for j, mj := range mean {
			if mj != 0 {
				matrix.AXPY(-mj, sums.sumX, ytx.Row(j))
			}
		}
		return ytx.MaxAbsDiff(wantYtXc) < 1e-8 && sums.xtx.MaxAbsDiff(wantXtX) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ss3 computed with and without the associativity trick agree.
func TestSS3OrderInvariance(t *testing.T) {
	f := func(seed uint16) bool {
		rng := matrix.NewRNG(uint64(seed) + 999)
		n, dims, d := 10+int(seed)%12, 5+int(seed)%7, 2
		y := randomSparseMat(rng, n, dims, 0.5)
		mean := y.ColMeans()
		em := newEMDriver(DefaultOptions(d), n, dims, mean, 1)
		if err := em.prepare(); err != nil {
			return false
		}
		c := matrix.NormRnd(rng, dims, d)
		assoc := localSS3(y, em, c, newLocalScratch(dims, d))

		// Dense order: Σ (Xi·Cᵀ)·Yiᵀ.
		var direct float64
		xi := make([]float64, d)
		for i := 0; i < y.R; i++ {
			row := y.Row(i)
			latentRow(row, em, true, xi)
			for k, j := range row.Indices {
				direct += matrix.Dot(xi, c.Row(j)) * row.Values[k]
			}
		}
		return math.Abs(assoc-direct) < 1e-8*(1+math.Abs(direct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomSparseMat builds a random sparse matrix with at least one non-zero
// per row (empty rows are legal but make the properties vacuous).
func randomSparseMat(rng *matrix.RNG, n, dims int, density float64) *matrix.Sparse {
	b := matrix.NewSparseBuilder(dims)
	for i := 0; i < n; i++ {
		var idx []int
		var vals []float64
		for j := 0; j < dims; j++ {
			if rng.Float64() < density {
				idx = append(idx, j)
				vals = append(vals, rng.NormFloat64())
			}
		}
		if len(idx) == 0 {
			idx = append(idx, rng.Intn(dims))
			vals = append(vals, rng.NormFloat64())
		}
		b.AddRow(idx, vals)
	}
	return b.Build()
}
