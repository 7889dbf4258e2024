// Package accuracy is the yardstick every engine is graded by (§5): a fit's
// relative 1-norm reconstruction error on a random sample of input rows, and
// its "% of ideal accuracy", the error an exact rank-d PCA makes on the same
// rows divided by the fit's own. The EM engines, the sketch engines, the
// Mahout-PCA, MLlib-PCA and SVD-Bidiag baselines, the facade and the
// experiments all measure through it.
package accuracy

import (
	"slices"

	"spca/internal/matrix"
)

// SampleRows is how many rows the error metric grades (§5: the error is
// measured on a random subset of rows).
const SampleRows = 256

// Seed derives the sample seed of a fit seeded with seed. The EM engines,
// MLlib-PCA, SVD-Bidiag and Ideal draw their rows from it; the sketch
// engines do not (ROADMAP open item "Two error samples").
func Seed(seed uint64) uint64 { return seed + 0xACC }

// SketchSeed derives the sample seed of the sketch engines (rsvd and ssvd).
// It is not Seed, so a sketch is graded on other rows than its Ideal is
// measured on (ROADMAP open item "Two error samples").
func SketchSeed(seed uint64) uint64 { return matrix.DeriveSeed(seed, "sample", 0) }

// Rows draws want of n row indices from the sample seed seed, in ascending
// order; all n when want >= n.
func Rows(n, want int, seed uint64) []int {
	if want >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := matrix.NewRNG(seed).Perm(n)[:want]
	slices.Sort(idx)
	return idx
}

// Copy copies the rows that Rows(n, want, seed) names, in order, into a CSR
// matrix; row(i) returns input row i.
func Copy(n, dims, want int, seed uint64, row func(int) matrix.SparseVector) *matrix.Sparse {
	b := matrix.NewSparseBuilder(dims)
	for _, i := range Rows(n, want, seed) {
		r := row(i)
		b.AddRow(r.Indices, r.Values)
	}
	return b.Build()
}

// Sample is the rows fits are graded on, with the scratch Err reuses.
type Sample struct {
	y                *matrix.Sparse
	pm, xi, num, den []float64
}

// New grades fits on the rows of y.
func New(y *matrix.Sparse) *Sample {
	return &Sample{y: y, num: make([]float64, y.C), den: make([]float64, y.C)}
}

// Draw copies the SampleRows rows of rows that seed draws.
func Draw(rows []matrix.SparseVector, dims int, seed uint64) *Sample {
	return New(Copy(len(rows), dims, SampleRows, seed, func(i int) matrix.SparseVector { return rows[i] }))
}

// Err is the relative 1-norm reconstruction error Σ|Yi−Ŷi| / Σ|Yi| over the
// sampled rows, with Ŷi = ((Yi−Ym)·P)·Cᵀ + Ym computed without densifying
// Yi−Ym. An orthonormal fit passes P = C = W; the EM step passes P = C·M⁻¹
// and C. The latent scratch is sized on the first call and reused after.
func (s *Sample) Err(mean []float64, p, c *matrix.Dense) float64 {
	if len(s.xi) != p.C {
		s.pm, s.xi = make([]float64, p.C), make([]float64, p.C)
	}
	pm, xi := p.MulVecTInto(mean, s.pm), s.xi // Ym·P
	var num, den float64
	for i := 0; i < s.y.R; i++ {
		row := s.y.Row(i)
		for k := range xi {
			xi[k] = -pm[k]
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], p.Row(j), xi)
		}
		// The per-column terms fill in parallel and are summed in ascending
		// column order, bit-identical to a sequential evaluation.
		matrix.ReconTerms(row, mean, c, xi, s.num, s.den)
		for j := range s.num {
			num += s.num[j]
			den += s.den[j]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Ideal is the error an exact rank-d PCA of y makes on the rows Seed(seed)
// draws: the "ideal accuracy" baseline of §5. Lanczos runs on the
// mean-propagated operator, so y is never densified.
func Ideal(y *matrix.Sparse, d int, seed uint64) float64 {
	mean := y.ColMeans()
	_, _, v := matrix.LanczosSVD(matrix.CenteredOp{M: y, Mean: mean}, d, 3*d+10, matrix.NewRNG(seed+0x1DEA))
	return New(Copy(y.R, y.C, SampleRows, Seed(seed), y.Row)).Err(mean, v, v)
}

// Of converts a fit's error into a fraction of ideal accuracy, ideal/err,
// clamped to 1; 0 when ideal is unset. It approaches 1 as the fit's error
// approaches the exact rank-d PCA's, and is well defined for any error scale
// (the sampled 1-norm error exceeds 1 on very sparse binary data, where
// reconstructions smear mass across the zero entries).
func Of(ideal, err float64) float64 {
	if ideal <= 0 {
		return 0
	}
	if err <= ideal {
		return 1
	}
	return ideal / err
}
