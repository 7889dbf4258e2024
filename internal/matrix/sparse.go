package matrix

import (
	"fmt"
	"math"
	"sort"

	"spca/internal/parallel"
)

// SparseVector is a sparse row: parallel slices of column indices (strictly
// increasing) and values. Len is the logical dimensionality D.
type SparseVector struct {
	Len     int
	Indices []int
	Values  []float64
}

// NNZ returns the number of stored (non-zero) entries.
func (v SparseVector) NNZ() int { return len(v.Indices) }

// At returns element j (zero if not stored).
func (v SparseVector) At(j int) float64 {
	k := sort.SearchInts(v.Indices, j)
	if k < len(v.Indices) && v.Indices[k] == j {
		return v.Values[k]
	}
	return 0
}

// Dot returns the dot product of v with the dense vector x (len must be v.Len).
func (v SparseVector) Dot(x []float64) float64 {
	if len(x) != v.Len {
		panic(fmt.Sprintf("matrix: SparseVector.Dot dims %d vs %d", v.Len, len(x)))
	}
	var s float64
	for k, j := range v.Indices {
		s += v.Values[k] * x[j]
	}
	return s
}

// Dense returns the dense expansion of v.
func (v SparseVector) Dense() []float64 {
	out := make([]float64, v.Len)
	for k, j := range v.Indices {
		out[j] = v.Values[k]
	}
	return out
}

// Sum returns the sum of the stored values.
func (v SparseVector) Sum() float64 {
	var s float64
	for _, x := range v.Values {
		s += x
	}
	return s
}

// NormSq returns the squared Euclidean norm of v.
func (v SparseVector) NormSq() float64 {
	var s float64
	for _, x := range v.Values {
		s += x * x
	}
	return s
}

// Sparse is a compressed-sparse-row (CSR) matrix with R rows and C columns.
type Sparse struct {
	R, C   int
	RowPtr []int // len R+1
	Cols   []int
	Vals   []float64
}

// NewSparse returns an empty CSR matrix with r rows and c columns.
func NewSparse(r, c int) *Sparse {
	return &Sparse{R: r, C: c, RowPtr: make([]int, r+1)}
}

// SparseBuilder incrementally assembles a CSR matrix row by row.
type SparseBuilder struct {
	c      int
	rowPtr []int
	cols   []int
	vals   []float64
}

// NewSparseBuilder returns a builder for matrices with c columns.
func NewSparseBuilder(c int) *SparseBuilder {
	return &SparseBuilder{c: c, rowPtr: []int{0}}
}

// AddRow appends a row given parallel index/value slices. Indices must be
// strictly increasing and < c. The slices are copied.
func (b *SparseBuilder) AddRow(indices []int, values []float64) {
	if len(indices) != len(values) {
		panic("matrix: SparseBuilder.AddRow length mismatch")
	}
	prev := -1
	for _, j := range indices {
		if j <= prev || j >= b.c {
			panic(fmt.Sprintf("matrix: SparseBuilder.AddRow bad index %d (prev %d, cols %d)", j, prev, b.c))
		}
		prev = j
	}
	b.cols = append(b.cols, indices...)
	b.vals = append(b.vals, values...)
	b.rowPtr = append(b.rowPtr, len(b.cols))
}

// AddDenseRow appends a dense row, storing only non-zero entries.
func (b *SparseBuilder) AddDenseRow(row []float64) {
	if len(row) != b.c {
		panic("matrix: SparseBuilder.AddDenseRow length mismatch")
	}
	for j, v := range row {
		if v != 0 {
			b.cols = append(b.cols, j)
			b.vals = append(b.vals, v)
		}
	}
	b.rowPtr = append(b.rowPtr, len(b.cols))
}

// Build finalizes the matrix. The builder must not be reused afterwards.
func (b *SparseBuilder) Build() *Sparse {
	return &Sparse{R: len(b.rowPtr) - 1, C: b.c, RowPtr: b.rowPtr, Cols: b.cols, Vals: b.vals}
}

// Dims returns the number of rows and columns.
func (m *Sparse) Dims() (r, c int) { return m.R, m.C }

// NNZ returns the total number of stored entries.
func (m *Sparse) NNZ() int { return len(m.Cols) }

// Row returns row i as a SparseVector whose slices alias the matrix storage.
func (m *Sparse) Row(i int) SparseVector {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return SparseVector{Len: m.C, Indices: m.Cols[lo:hi], Values: m.Vals[lo:hi]}
}

// At returns element (i, j).
func (m *Sparse) At(i, j int) float64 { return m.Row(i).At(j) }

// Dense returns the dense expansion of m.
func (m *Sparse) Dense() *Dense {
	out := NewDense(m.R, m.C)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for k, j := range row.Indices {
			orow[j] = row.Values[k]
		}
	}
	return out
}

// FromDense converts a dense matrix to CSR, dropping exact zeros.
func FromDense(d *Dense) *Sparse {
	b := NewSparseBuilder(d.C)
	for i := 0; i < d.R; i++ {
		b.AddDenseRow(d.Row(i))
	}
	return b.Build()
}

// ColMeans returns the per-column means of m.
func (m *Sparse) ColMeans() []float64 {
	out := make([]float64, m.C)
	if m.R == 0 {
		return out
	}
	for k, j := range m.Cols {
		out[j] += m.Vals[k]
	}
	inv := 1.0 / float64(m.R)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// MulDense returns m*b for dense b (sizes C x K), exploiting sparsity:
// each output row is the combination of b's rows selected by the sparse row.
// It allocates the output and delegates to MulDenseInto.
func (m *Sparse) MulDense(b *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("matrix: Sparse.MulDense dims %dx%d * %dx%d", m.R, m.C, b.R, b.C))
	}
	return m.MulDenseInto(b, NewDense(m.R, b.C))
}

// MulVec returns m*x.
func (m *Sparse) MulVec(x []float64) []float64 {
	if m.C != len(x) {
		panic("matrix: Sparse.MulVec dims mismatch")
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		out[i] = m.Row(i).Dot(x)
	}
	return out
}

// MulVecT returns mᵀ*x.
func (m *Sparse) MulVecT(x []float64) []float64 {
	if m.R != len(x) {
		panic("matrix: Sparse.MulVecT dims mismatch")
	}
	out := make([]float64, m.C)
	// Column-range parallel: chunk [lo,hi) owns out[lo:hi) and scans every
	// row in ascending i, entering each row's index list by binary search.
	// Per column the accumulation order over i is therefore exactly the
	// sequential order. The per-row search overhead only pays off when the
	// matrix carries real work, so small or ultra-sparse inputs stay inline.
	grain := m.C
	if nnz := m.NNZ(); nnz >= minParallelFlops && nnz >= 4*m.R && m.C > 1 {
		grain = flopGrain(2*nnz/m.C + 1)
	}
	parallel.For(m.C, grain, func(lo, hi int) {
		full := lo == 0 && hi == m.C
		for i, xi := range x {
			if xi == 0 {
				continue
			}
			row := m.Row(i)
			k := 0
			if !full {
				k = sort.SearchInts(row.Indices, lo)
			}
			for ; k < len(row.Indices); k++ {
				j := row.Indices[k]
				if j >= hi {
					break
				}
				out[j] += xi * row.Values[k]
			}
		}
	})
	return out
}

// FrobeniusSq returns the squared Frobenius norm of m (not mean-centered).
func (m *Sparse) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.Vals {
		s += v * v
	}
	return s
}

// CenteredFrobeniusSqSimple computes ||Y - Ym||_F² by densifying one row at a
// time (Algorithm 2 in the paper). It is the slow baseline for the Frobenius
// optimization ablation.
func (m *Sparse) CenteredFrobeniusSqSimple(mean []float64) float64 {
	if len(mean) != m.C {
		panic("matrix: CenteredFrobeniusSqSimple mean length mismatch")
	}
	var sum float64
	dense := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		for j := range dense {
			dense[j] = -mean[j]
		}
		row := m.Row(i)
		for k, j := range row.Indices {
			dense[j] += row.Values[k]
		}
		for _, v := range dense {
			sum += v * v
		}
	}
	return sum
}

// CenteredFrobeniusSq computes ||Y - Ym||_F² touching only non-zero entries
// (Algorithm 3 in the paper): start from the all-zero-row norm Σ mean²,
// then for each stored entry replace mean² with (v-mean)².
func (m *Sparse) CenteredFrobeniusSq(mean []float64) float64 {
	if len(mean) != m.C {
		panic("matrix: CenteredFrobeniusSq mean length mismatch")
	}
	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	sum := msum * float64(m.R)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for k, j := range row.Indices {
			v := row.Values[k]
			d := v - mean[j]
			sum += d*d - mean[j]*mean[j]
		}
	}
	return sum
}

// CenteredMulDense returns (Y - Ym)*b without densifying Y, via mean
// propagation: Yc*B = Y*B - Ym*B (the paper's §3.1 identity). It allocates
// the output and the mean's image and delegates to CenteredMulDenseInto.
func (m *Sparse) CenteredMulDense(mean []float64, b *Dense) *Dense {
	mb := b.MulVecT(mean) // mean' * B, a 1 x K row
	return m.CenteredMulDenseInto(b, NewDense(m.R, b.C), mb)
}

// SizeBytes estimates the in-memory footprint of the CSR storage.
func (m *Sparse) SizeBytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.Cols))*8 + int64(len(m.Vals))*8
}

// Density returns NNZ / (R*C).
func (m *Sparse) Density() float64 {
	if m.R == 0 || m.C == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.R) * float64(m.C))
}

// MaxAbs returns the largest absolute stored value (0 for an empty matrix).
func (m *Sparse) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Vals {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
