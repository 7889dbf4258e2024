// Package accuracy is the yardstick every engine is graded by (§5): a fit's
// relative 1-norm reconstruction error on a random sample of input rows, and
// its "% of ideal accuracy", the error an exact rank-d PCA makes on the same
// rows divided by the fit's own. The EM engines, the sketch engines, the
// Mahout-PCA, MLlib-PCA and SVD-Bidiag baselines, the facade and the
// experiments all measure through it.
package accuracy

import (
	"math"
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

// errBlockFloats bounds Err's scratch for the images X·Cᵀ of one block of
// sampled rows: a block holds as many D-wide rows as fit, at least one.
const errBlockFloats = 1 << 15

// Sample is the rows fits are graded on, with the scratch Err reuses: Ym·P,
// Cᵀ, and one block of latent rows X with their images X·Cᵀ.
type Sample struct {
	y          *matrix.Sparse
	block      int // rows per block
	pm         []float64
	ct, xs, rs matrix.Dense
}

// New grades fits on the rows of y.
func New(y *matrix.Sparse) *Sample {
	block := min(y.R, max(errBlockFloats/max(y.C, 1), 1))
	return &Sample{y: y, block: block, rs: matrix.Dense{C: y.C, Data: make([]float64, block*y.C)}}
}

// Draw copies the SampleRows rows of rows that seed draws.
func Draw(rows []matrix.SparseVector, dims int, seed uint64) *Sample {
	return New(Copy(len(rows), dims, SampleRows, seed, func(i int) matrix.SparseVector { return rows[i] }))
}

// Err is the relative 1-norm reconstruction error Σ|Yi−Ŷi| / Σ|Yi| over the
// sampled rows, with Ŷi = ((Yi−Ym)·P)·Cᵀ + Ym computed without densifying
// Yi−Ym. An orthonormal fit passes P = C = W; the EM step passes P = C·M⁻¹
// and C. Its scratch (Ym·P, a block of latent rows and Cᵀ) is one
// allocation, sized on the first call and reused after.
//
// Rows go a block at a time: their latent rows Xi = (Yi−Ym)·P fill X, one
// MulInto over a copy of Cᵀ forms X·Cᵀ on the parallel pool, and the terms
// are summed over columns in ascending order, rows in order. Each element of
// X·Cᵀ sums k ascending from +0, as the dot product of a row-by-row
// evaluation does, so the error is bit-identical to one. MulInto skips a
// zero latent entry where the dot product adds its product ±0; while C is
// finite (the EM engines check it before grading) that moves no bit, since a
// sum that starts at +0 is never −0 and adding ±0 leaves it as it is.
func (s *Sample) Err(mean []float64, p, c *matrix.Dense) float64 {
	block := s.block
	if s.ct.R != p.C || s.ct.C != s.y.C {
		d, dims := p.C, s.y.C
		buf := make([]float64, d+block*d+d*dims)
		s.pm = buf[:d:d]
		s.xs = matrix.Dense{C: d, Data: buf[d : d+block*d : d+block*d]}
		s.ct = matrix.Dense{R: d, C: dims, Data: buf[d+block*d:]}
	}
	ct := c.TInto(&s.ct)
	pm := p.MulVecTInto(mean, s.pm) // Ym·P
	var num, den float64
	for base := 0; base < s.y.R; base += block {
		n := min(block, s.y.R-base)
		xs, rs := &s.xs, &s.rs
		xs.R, xs.Data = n, xs.Data[:n*xs.C]
		rs.R, rs.Data = n, rs.Data[:n*rs.C]
		for t := 0; t < n; t++ {
			row, xi := s.y.Row(base+t), xs.Row(t)
			for k := range xi {
				xi[k] = -pm[k]
			}
			row.MulAdd(p, xi)
		}
		xs.MulInto(ct, rs)
		for t := 0; t < n; t++ {
			row, nz := s.y.Row(base+t), 0
			for j, xc := range rs.Row(t) {
				recon := mean[j] + xc
				var yv float64
				if nz < len(row.Indices) && row.Indices[nz] == j {
					yv = row.Values[nz]
					nz++
				}
				num += math.Abs(yv - recon)
				den += math.Abs(yv)
			}
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
