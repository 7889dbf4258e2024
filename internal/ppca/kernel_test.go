package ppca

import (
	"math"
	"slices"
	"testing"

	"spca/internal/matrix"
)

// kernelRow draws a sparse row of nnz distinct columns of dims, ascending.
func kernelRow(rng *matrix.RNG, dims, nnz int) matrix.SparseVector {
	idx := rng.Perm(dims)[:nnz]
	slices.Sort(idx)
	vals := make([]float64, nnz)
	for k := range vals {
		vals[k] = rng.NormFloat64()
	}
	return matrix.SparseVector{Len: dims, Indices: idx, Values: vals}
}

// perNonzero is the reference of the row products: one AXPY per nonzero, in
// nonzero order.
func perNonzero(row matrix.SparseVector, m *matrix.Dense, out []float64) {
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], m.Row(j), out)
	}
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestRowProductsMatchPerNonzeroAXPY holds latentRow (with and without mean
// propagation) and the associative ss3Term to the per-nonzero AXPY loop, bit
// for bit, at 0–9 and 33 nonzeros: every remainder of the four-nonzero sweep.
func TestRowProductsMatchPerNonzeroAXPY(t *testing.T) {
	rng := matrix.NewRNG(41)
	const dims = 64
	for _, d := range []int{13, 50} {
		cm, c := matrix.NormRnd(rng, dims, d), matrix.NormRnd(rng, dims, d)
		xm := make([]float64, d)
		for k := range xm {
			xm[k] = rng.NormFloat64()
		}
		em := &emDriver{cm: cm, xm: xm}
		for _, nnz := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
			row := kernelRow(rng, dims, nnz)
			for _, meanProp := range []bool{true, false} {
				got, want := make([]float64, d), make([]float64, d)
				latentRow(row, em, meanProp, got)
				if meanProp {
					for k := range want {
						want[k] = -xm[k]
					}
				}
				perNonzero(row, cm, want)
				sameBits(t, "latentRow", got, want)
			}

			s := newRowScratch(d)
			copy(s.xi, xm)
			term, ops := s.ss3Term(row, c, true)
			ct := make([]float64, d)
			perNonzero(row, c, ct)
			if want := matrix.Dot(xm, ct); math.Float64bits(term) != math.Float64bits(want) {
				t.Fatalf("d=%d nnz=%d: ss3Term %v, want %v", d, nnz, term, want)
			}
			if want := int64(2*nnz*d + d); ops != want {
				t.Fatalf("d=%d nnz=%d: ss3Term charged %d ops, want %d", d, nnz, ops, want)
			}
		}
	}
}
