package matrix

import (
	"math"
	"slices"
	"testing"

	"spca/internal/parallel"
)

// edgeValue draws a value that is a plain Gaussian three times in four, else
// one of −0, ±5e-324 (subnormal) and ±Inf.
func edgeValue(rng *RNG) float64 {
	edges := []float64{math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1)}
	if rng.Intn(4) > 0 {
		return rng.NormFloat64()
	}
	return edges[rng.Intn(len(edges))]
}

// rowOf draws a sparse row of nnz distinct columns of dims, ascending.
func rowOf(rng *RNG, dims, nnz int, val func() float64) SparseVector {
	idx := rng.Perm(dims)[:nnz]
	slices.Sort(idx)
	vals := make([]float64, nnz)
	for k := range vals {
		vals[k] = val()
	}
	return SparseVector{Len: dims, Indices: idx, Values: vals}
}

// TestMulAddMatchesPerNonzeroAXPY holds MulAdd to one AXPY per nonzero in
// nonzero order, bit for bit (two NaNs match), at 0–9 and 33 nonzeros
// (every remainder of the four-nonzero sweep) and d = 1, 13 and 50, with
// −0, subnormals and ±Inf among the row's values, B's entries and out's
// starting values.
func TestMulAddMatchesPerNonzeroAXPY(t *testing.T) {
	rng := NewRNG(5)
	const dims = 64
	for _, d := range []int{1, 13, 50} {
		b := NewDense(dims, d)
		for i := range b.Data {
			b.Data[i] = edgeValue(rng)
		}
		for _, nnz := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
			for rep := 0; rep < 4; rep++ {
				row := rowOf(rng, dims, nnz, func() float64 { return edgeValue(rng) })
				got := make([]float64, d)
				for k := range got {
					got[k] = edgeValue(rng)
				}
				want := slices.Clone(got)
				row.MulAdd(b, got)
				for k, j := range row.Indices {
					AXPY(row.Values[k], b.Row(j), want)
				}
				sameFloats(t, "MulAdd", got, want)
			}
		}
	}
}

// TestRowBlocksClaimResetScatter: Scatter adds Yᵀ·x into rows claimed in
// first-touch order, each equal bit for bit to a dense Yᵀ·x built with one
// AXPY per nonzero; untouched keys stay unclaimed; a claimed row keeps its
// storage; and after Reset a second pass over other rows starts from zeroed
// rows in its own claim order. Widths 1 and 50 claim across block
// boundaries (4096 and 64 rows a block); width 4097 holds one row a block.
func TestRowBlocksClaimResetScatter(t *testing.T) {
	rng := NewRNG(9)
	for _, c := range []struct{ w, keys, rows, nnz int }{
		{1, 5000, 1500, 12},
		{50, 300, 60, 8},
		{rowBlockFloats + 1, 7, 5, 2},
	} {
		s := NewRowBlocks(c.w, c.keys)
		for pass := 0; pass < 2; pass++ {
			want := NewDense(c.keys, c.w)
			var order []int32
			seen := make([]bool, c.keys)
			for r := 0; r < c.rows; r++ {
				y := rowOf(rng, c.keys, c.nnz, rng.NormFloat64)
				x := make([]float64, c.w)
				for k := range x {
					x[k] = rng.NormFloat64()
				}
				s.Scatter(y, x)
				for k, j := range y.Indices {
					AXPY(y.Values[k], x, want.Row(j))
					if !seen[j] {
						seen[j] = true
						order = append(order, int32(j))
					}
				}
			}
			if !slices.Equal(s.Touched(), order) {
				t.Fatalf("w=%d pass %d: claimed %d keys out of first-touch order", c.w, pass, len(order))
			}
			if blocks := len(s.blocks); pass == 0 && blocks < 2 {
				t.Fatalf("w=%d: %d claims filled %d block, want a boundary crossed", c.w, len(order), blocks)
			}
			for _, j := range order {
				r := s.Row(int(j))
				sameFloats(t, "Scatter", r, want.Row(int(j)))
				if &s.Row(int(j))[0] != &r[0] {
					t.Fatalf("w=%d: key %d's row moved", c.w, j)
				}
			}
			for j, ok := range seen {
				if !ok && s.off[j] >= 0 {
					t.Fatalf("w=%d: untouched key %d is claimed", c.w, j)
				}
			}
			s.Reset()
			if len(s.Touched()) != 0 {
				t.Fatalf("w=%d: Reset left %d keys claimed", c.w, len(s.Touched()))
			}
		}
	}
}

// TestSubOuterMatchesLoop holds SubOuter to the sequential loop (row j −=
// u_j·v, one AXPY of −u_j each, zero u_j skipped) bit for bit on one worker
// and on four, where the 5000 rows split into chunks. Two u_j are zero while
// v holds ±Inf: their rows must stay as they were (0·Inf would be NaN), and
// one u_j is −0. A call allocates nothing.
func TestSubOuterMatchesLoop(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := NewRNG(11)
	const rows, cols = 5000, 8
	u := make([]float64, rows)
	for j := range u {
		u[j] = rng.NormFloat64()
	}
	u[3], u[4000] = 0, math.Copysign(0, -1)
	v := make([]float64, cols)
	for k := range v {
		v[k] = rng.NormFloat64()
	}
	v[1], v[6] = math.Inf(1), math.Inf(-1)
	m0 := NormRnd(rng, rows, cols)
	want := m0.Clone()
	for j, uj := range u {
		if uj != 0 {
			AXPY(-uj, v, want.Row(j))
		}
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		m := m0.Clone()
		m.SubOuter(u, v)
		sameFloats(t, "SubOuter", m.Data, want.Data)
		for _, j := range []int{3, 4000} {
			if !slices.Equal(m.Row(j), m0.Row(j)) {
				t.Fatalf("%d workers: row %d with u_j = 0 changed to %v", workers, j, m.Row(j))
			}
		}
	}
	parallel.SetWorkers(0)
	m := m0.Clone()
	if allocs := testing.AllocsPerRun(10, func() { m.SubOuter(u, v) }); allocs != 0 {
		t.Fatalf("SubOuter allocated %v times, want 0", allocs)
	}
}
