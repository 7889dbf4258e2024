// Package matrix implements the dense and sparse linear algebra used by the
// sPCA reproduction: row-major dense matrices, compressed sparse row (CSR)
// matrices, deterministic Gaussian random sources, QR and eigendecomposition,
// Golub–Reinsch SVD, Lanczos bidiagonalization for sparse SVD, and small
// linear solvers. It is written against the standard library only.
package matrix

import (
	"fmt"
	"math"
)

// minParallelFlops is roughly how much arithmetic one parallel chunk should
// amortize before goroutine hand-off pays for itself. Kernels derive their
// parallel.For grain from it so small matrices stay on the inline fast path.
const minParallelFlops = 1 << 15

// flopGrain converts per-index work (in flops) into a parallel.For grain.
func flopGrain(perItem int) int {
	if perItem <= 0 {
		perItem = 1
	}
	g := minParallelFlops / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// Dense is a row-major dense matrix with R rows and C columns.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	R, C int
	Data []float64 // len R*C, row-major
}

// NewDense returns a zeroed r-by-c dense matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// NewDenseFromRows builds a dense matrix from row slices. All rows must have
// equal length. The data is copied.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.R, m.C }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.R != src.R || m.C != src.C {
		panic(fmt.Sprintf("matrix: CopyFrom dims %dx%d != %dx%d", m.R, m.C, src.R, src.C))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on its diagonal.
func Diag(d []float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.C, m.R)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.R+i] = v
		}
	}
	return out
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	checkSameDims("Add", m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace sets m = m + b.
func (m *Dense) AddInPlace(b *Dense) {
	checkSameDims("AddInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	checkSameDims("Sub", m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace sets m = s*m.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaledIdentity returns m + s*I for square m.
func (m *Dense) AddScaledIdentity(s float64) *Dense {
	if m.R != m.C {
		panic("matrix: AddScaledIdentity on non-square matrix")
	}
	out := m.Clone()
	for i := 0; i < m.R; i++ {
		out.Data[i*m.C+i] += s
	}
	return out
}

// Mul returns m*b as a new matrix (inner dimensions must agree).
// It allocates the output and delegates to MulInto.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("matrix: Mul dims %dx%d * %dx%d", m.R, m.C, b.R, b.C))
	}
	return m.MulInto(b, NewDense(m.R, b.C))
}

// MulT returns mᵀ*b as a new matrix. m and b must have the same row count.
// This is the row-streaming product of Equation (2) in the paper:
// (Aᵀ*B) = Σ_i (A_i)ᵀ * B_i.
// It allocates the output and delegates to MulTInto.
func (m *Dense) MulT(b *Dense) *Dense {
	if m.R != b.R {
		panic(fmt.Sprintf("matrix: MulT dims %dx%d ᵀ* %dx%d", m.R, m.C, b.R, b.C))
	}
	return m.MulTInto(b, NewDense(m.C, b.C))
}

// MulBT returns m*bᵀ as a new matrix. m and b must have the same column
// count. It allocates the output and delegates to MulBTInto.
func (m *Dense) MulBT(b *Dense) *Dense {
	if m.C != b.C {
		panic(fmt.Sprintf("matrix: MulBT dims %dx%d * %dx%dᵀ", m.R, m.C, b.R, b.C))
	}
	return m.MulBTInto(b, NewDense(m.R, b.R))
}

// MulVec returns m*x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.C != len(x) {
		panic(fmt.Sprintf("matrix: MulVec dims %dx%d * %d", m.R, m.C, len(x)))
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		out[i] = dot(m.Row(i), x)
	}
	return out
}

// MulVecT returns mᵀ*x as a new vector. It allocates the output and
// delegates to MulVecTInto.
func (m *Dense) MulVecT(x []float64) []float64 {
	return m.MulVecTInto(x, make([]float64, m.C))
}

// Trace returns the sum of the diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	if m.R != m.C {
		panic("matrix: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.R; i++ {
		t += m.Data[i*m.C+i]
	}
	return t
}

// FrobeniusSq returns the squared Frobenius norm of m.
func (m *Dense) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return s
}

// Frobenius returns the Frobenius norm of m.
func (m *Dense) Frobenius() float64 { return math.Sqrt(m.FrobeniusSq()) }

// Norm1 returns the entrywise 1-norm (sum of absolute values) of m. The paper
// uses the entrywise 1-norm of the reconstruction error as its accuracy metric.
func (m *Dense) Norm1() float64 {
	var s float64
	for _, v := range m.Data {
		s += math.Abs(v)
	}
	return s
}

// MaxAbsDiff returns max |m_ij - b_ij|; useful in tests.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	checkSameDims("MaxAbsDiff", m, b)
	var mx float64
	for i, v := range m.Data {
		if d := math.Abs(v - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// ColMeans returns the vector of per-column means of m.
func (m *Dense) ColMeans() []float64 {
	out := make([]float64, m.C)
	if m.R == 0 {
		return out
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1.0 / float64(m.R)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// SubRowVec returns m with v subtracted from every row (mean-centering).
func (m *Dense) SubRowVec(v []float64) *Dense {
	if m.C != len(v) {
		panic(fmt.Sprintf("matrix: SubRowVec dims %dx%d - %d", m.R, m.C, len(v)))
	}
	out := m.Clone()
	for i := 0; i < m.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] -= v[j]
		}
	}
	return out
}

// Col returns column j as a new slice.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		out[i] = m.Data[i*m.C+j]
	}
	return out
}

// SetCol assigns column j from v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.R {
		panic("matrix: SetCol length mismatch")
	}
	for i := 0; i < m.R; i++ {
		m.Data[i*m.C+j] = v[i]
	}
}

// SliceRows returns a view-copy of rows [lo, hi).
func (m *Dense) SliceRows(lo, hi int) *Dense {
	if lo < 0 || hi > m.R || lo > hi {
		panic(fmt.Sprintf("matrix: SliceRows [%d,%d) of %d rows", lo, hi, m.R))
	}
	out := NewDense(hi-lo, m.C)
	copy(out.Data, m.Data[lo*m.C:hi*m.C])
	return out
}

// String renders a small matrix for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense %dx%d", m.R, m.C)
	if m.R*m.C <= 64 {
		s += " ["
		for i := 0; i < m.R; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
			if i < m.R-1 {
				s += "; "
			}
		}
		s += "]"
	}
	return s
}

func checkSameDims(op string, a, b *Dense) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("matrix: %s dims %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Dot returns the dot product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: Dot length mismatch")
	}
	return dot(a, b)
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("matrix: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// VecNorm1 returns the 1-norm of x.
func VecNorm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// VecScale scales x in place by a.
func VecScale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// VecSub returns a-b as a new vector.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("matrix: VecSub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SymOuterAdd accumulates Σ_r x_r·x_rᵀ into the upper triangle (b ≥ a) of
// the square d×d out, over the rows x_r of xs (len(xs)/d rows of d, in
// order). The lower triangle is left as it is; MirrorUpper completes the
// matrix once the accumulation is done. Like OuterAdd it skips a row's term
// at a where x_r[a] == 0.
//
// Each upper element sums the same products in the same row order as a full
// OuterAdd(out, x_r, x_r) loop, and float products commute, so after the
// mirror the matrix is bit-identical to the full update as long as the sums
// start at +0 and the rows are finite. (Where one of x_r[a] and x_r[b] is 0,
// one of the two twins skips a term the other adds as ±0; a sum that starts
// at +0 never becomes −0, so that term changes nothing.)
//
// Rows are taken four per sweep of out, so a block of rows reads and writes
// each element once per four rows; a single row, or the rest of a block,
// sweeps on its own. The EM engines' XtX update is the hottest loop of a
// fit, and the kernel stays out of line so the loop's code placement does
// not move with every edit to its callers: when inlined, unrelated changes
// to the caller shifted the loop across a 64-byte boundary and slowed it by
// up to ~60% on a 2-core Xeon.
//
//go:noinline
func SymOuterAdd(out *Dense, xs []float64) {
	d := out.R
	if out.C != d || d == 0 || len(xs)%d != 0 {
		panic("matrix: SymOuterAdd dims mismatch")
	}
	n := len(xs) / d
	r := 0
	for ; r+4 <= n; r += 4 {
		x0, x1, x2, x3 := xs[r*d:(r+1)*d], xs[(r+1)*d:(r+2)*d], xs[(r+2)*d:(r+3)*d], xs[(r+3)*d:(r+4)*d]
		for a := 0; a < d; a++ {
			row := out.Data[a*d+a : a*d+d]
			a0, a1, a2, a3 := x0[a], x1[a], x2[a], x3[a]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				symRowAdd(row, a0, x0[a:])
				symRowAdd(row, a1, x1[a:])
				symRowAdd(row, a2, x2[a:])
				symRowAdd(row, a3, x3[a:])
				continue
			}
			y0, y1, y2, y3 := x0[a:][:len(row)], x1[a:][:len(row)], x2[a:][:len(row)], x3[a:][:len(row)]
			for b, v := range row {
				v += a0 * y0[b]
				v += a1 * y1[b]
				v += a2 * y2[b]
				v += a3 * y3[b]
				row[b] = v
			}
		}
	}
	for ; r < n; r++ {
		x := xs[r*d : (r+1)*d]
		for a, av := range x {
			symRowAdd(out.Data[a*d+a:a*d+d], av, x[a:])
		}
	}
}

// symRowAdd is one row's term of SymOuterAdd at a: row += av·y, skipped when
// av is 0. y starts at column a, as row does.
func symRowAdd(row []float64, av float64, y []float64) {
	if av == 0 {
		return
	}
	y = y[:len(row)] // no per-element bounds check
	for b, yv := range y {
		row[b] += av * yv
	}
}

// MirrorUpper copies the upper triangle of the square m onto its lower one:
// m[b][a] = m[a][b] for every b > a.
func MirrorUpper(m *Dense) {
	d := m.R
	if m.C != d {
		panic("matrix: MirrorUpper on a non-square matrix")
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			m.Data[b*d+a] = m.Data[a*d+b]
		}
	}
}

// OuterAdd accumulates out += a*bᵀ where out is len(a) x len(b).
//
// Only FitMissing calls it. Its e = ss·M_i⁻¹ + x·xᵀ starts from a
// Gauss–Jordan inverse, which is not symmetric to the bit, so an
// upper-triangle update plus a mirror (SymOuterAdd, which every EM engine's
// XtX uses) would change its result. It stays out of line, as SymOuterAdd
// does, so its code placement does not move with its callers.
//
//go:noinline
func OuterAdd(out *Dense, a, b []float64) {
	if out.R != len(a) || out.C != len(b) {
		panic("matrix: OuterAdd dims mismatch")
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := out.Row(i)[:len(b)] // no per-element bounds check
		for j, bv := range b {
			row[j] += av * bv
		}
	}
}

// SubspaceGap measures how far apart the column spans of a and b are:
// 1 - the smallest principal cosine between the subspaces, so 0 means the
// spans coincide and 1 means some direction of one span is orthogonal to
// the other. Inputs are copied and orthonormalized internally.
func SubspaceGap(a, b *Dense) float64 {
	qa, qb := a.Clone(), b.Clone()
	GramSchmidt(qa)
	GramSchmidt(qb)
	_, s, _ := SVD(qa.MulT(qb))
	min := 1.0
	for _, v := range s {
		if v < min {
			min = v
		}
	}
	return 1 - min
}
