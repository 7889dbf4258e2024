package matrix

import (
	"fmt"
	"math"

	"spca/internal/parallel"
)

// This file holds the in-place (`*Into`) variants of the hot kernels. The
// rule — enforced by construction — is that every allocating kernel is a
// thin wrapper that allocates its output and delegates here, so the in-place
// and allocating paths cannot drift apart numerically: results are
// bit-identical by sharing the exact same loops. Outputs must not alias
// inputs unless a kernel documents otherwise.

// The hot Mul kernels dispatch their chunk loops through parallel.ForRunner
// with pooled body structs rather than closures: a closure capturing the
// operands escapes to the heap on every call, which showed up as the lone
// steady-state allocation in the EM inner loop (BenchmarkKernelsInPlace). The
// pools are mutex-guarded, so concurrent kernels (e.g. simulated map tasks)
// each get a private body; fields are cleared before Put so pooled bodies
// never pin operand matrices live.

// mulBody is MulInto's chunk loop with its captures as fields.
type mulBody struct {
	m, b, out *Dense
	kBlock    int
}

var mulBodies = parallel.NewPool(func() *mulBody { return new(mulBody) })

func (t *mulBody) Run(lo, hi int) {
	m, b, out, kBlock := t.m, t.b, t.out, t.kBlock
	for k0 := 0; k0 < m.C; k0 += kBlock {
		k1 := k0 + kBlock
		if k1 > m.C {
			k1 = m.C
		}
		for i := lo; i < hi; i++ {
			arow := m.Row(i)
			orow := out.Row(i)
			for k := k0; k < k1; k++ {
				a := arow[k]
				if a == 0 {
					continue // semantic, not only speed: 0·Inf would be NaN
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += a * bv
				}
			}
		}
	}
}

// MulInto computes out = m*b, overwriting out (dims m.R x b.C).
func (m *Dense) MulInto(b, out *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("matrix: Mul dims %dx%d * %dx%d", m.R, m.C, b.R, b.C))
	}
	if out.R != m.R || out.C != b.C {
		panic(fmt.Sprintf("matrix: MulInto out dims %dx%d, want %dx%d", out.R, out.C, m.R, b.C))
	}
	out.Zero()
	// Row-panel parallel: each chunk owns a disjoint band of output rows.
	// Within a chunk the k loop is blocked so a panel of b stays cache-hot
	// across the chunk's rows; blocks are visited in ascending k, so every
	// out[i][j] accumulates in exactly the sequential order (bit-identical).
	kBlock := minParallelFlops / (2 * (b.C + 1))
	if kBlock < 8 {
		kBlock = 8
	}
	body := mulBodies.Get()
	body.m, body.b, body.out, body.kBlock = m, b, out, kBlock
	parallel.ForRunner(m.R, flopGrain(2*m.C*b.C), body)
	*body = mulBody{}
	mulBodies.Put(body)
	return out
}

// MulTInto computes out = mᵀ*b, overwriting out (dims m.C x b.C).
func (m *Dense) MulTInto(b, out *Dense) *Dense {
	if m.R != b.R {
		panic(fmt.Sprintf("matrix: MulT dims %dx%d ᵀ* %dx%d", m.R, m.C, b.R, b.C))
	}
	if out.R != m.C || out.C != b.C {
		panic(fmt.Sprintf("matrix: MulTInto out dims %dx%d, want %dx%d", out.R, out.C, m.C, b.C))
	}
	out.Zero()
	// Parallel over bands of output rows (columns of m): chunk [lo,hi) only
	// touches out rows lo..hi-1, and each out[k][j] still accumulates over i
	// in ascending order, so the sum is bit-identical to the sequential
	// row-streaming loop.
	body := mulTBodies.Get()
	body.m, body.b, body.out = m, b, out
	parallel.ForRunner(m.C, flopGrain(2*m.R*b.C), body)
	*body = mulTBody{}
	mulTBodies.Put(body)
	return out
}

// mulTBody is MulTInto's chunk loop with its captures as fields.
type mulTBody struct {
	m, b, out *Dense
}

var mulTBodies = parallel.NewPool(func() *mulTBody { return new(mulTBody) })

func (t *mulTBody) Run(lo, hi int) {
	m, b, out := t.m, t.b, t.out
	for i := 0; i < m.R; i++ {
		arow := m.Row(i)
		brow := b.Row(i)
		for k := lo; k < hi; k++ {
			a := arow[k]
			if a == 0 {
				continue // semantic, not only speed: 0·Inf would be NaN
			}
			orow := out.Row(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
}

// MulBTInto computes out = m*bᵀ, overwriting out (dims m.R x b.R).
func (m *Dense) MulBTInto(b, out *Dense) *Dense {
	if m.C != b.C {
		panic(fmt.Sprintf("matrix: MulBT dims %dx%d * %dx%dᵀ", m.R, m.C, b.R, b.C))
	}
	if out.R != m.R || out.C != b.R {
		panic(fmt.Sprintf("matrix: MulBTInto out dims %dx%d, want %dx%d", out.R, out.C, m.R, b.R))
	}
	// Row-parallel with j-tiling: a tile of b's rows stays cache-hot across
	// the chunk's rows. Each out[i][j] is one dot product over k in
	// ascending order from +0, bit-identical to dot. Every entry is
	// assigned, so no Zero.
	jTile := minParallelFlops / (2 * (m.C + 1))
	if jTile < 8 {
		jTile = 8
	}
	body := mulBTBodies.Get()
	body.m, body.b, body.out, body.jTile = m, b, out, jTile
	parallel.ForRunner(m.R, flopGrain(2*m.C*b.R), body)
	*body = mulBTBody{}
	mulBTBodies.Put(body)
	return out
}

// mulBTBody is MulBTInto's chunk loop with its captures as fields.
type mulBTBody struct {
	m, b, out *Dense
	jTile     int
}

var mulBTBodies = parallel.NewPool(func() *mulBTBody { return new(mulBTBody) })

// Run computes four output columns per pass over a row of m, with one
// accumulator each, so a pass loads the row once for four dot products.
// Each accumulator sums over k in ascending order from +0, as dot does; the
// columns left over at a tile's end use dot.
func (t *mulBTBody) Run(lo, hi int) {
	m, b, out, jTile := t.m, t.b, t.out, t.jTile
	for j0 := 0; j0 < b.R; j0 += jTile {
		j1 := j0 + jTile
		if j1 > b.R {
			j1 = b.R
		}
		for i := lo; i < hi; i++ {
			arow := m.Row(i)
			orow := out.Row(i)
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0, b1 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)]
				b2, b3 := b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
				var s0, s1, s2, s3 float64
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				orow[j] = dot(arow, b.Row(j))
			}
		}
	}
}

// MulVecTInto computes out = mᵀ*x, overwriting out (length m.C).
func (m *Dense) MulVecTInto(x, out []float64) []float64 {
	if m.R != len(x) {
		panic(fmt.Sprintf("matrix: MulVecT dims %dx%dᵀ * %d", m.R, m.C, len(x)))
	}
	if len(out) != m.C {
		panic(fmt.Sprintf("matrix: MulVecTInto out len %d, want %d", len(out), m.C))
	}
	for j := range out {
		out[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// AddScaledInto computes out = a + s*b elementwise. All three matrices must
// share dimensions; out may alias a or b. The scaled term is rounded before
// the add (two statements, so no FMA contraction), matching the allocating
// a.Add(b.Scale(s)) composition bit for bit.
func AddScaledInto(out, a *Dense, s float64, b *Dense) *Dense {
	checkSameDims("AddScaledInto", a, b)
	checkSameDims("AddScaledInto", a, out)
	for i, bv := range b.Data {
		t := s * bv
		out.Data[i] = a.Data[i] + t
	}
	return out
}

// TraceMul returns trace(a*b) without materializing the product. a must be
// p x q and b q x p. The diagonal entries accumulate over k in ascending
// order with the same zero-skip as Mul, and the trace sums in ascending row
// order, so the result equals a.Mul(b).Trace() bit for bit.
func TraceMul(a, b *Dense) float64 {
	if a.C != b.R || a.R != b.C {
		panic(fmt.Sprintf("matrix: TraceMul dims %dx%d * %dx%d", a.R, a.C, b.R, b.C))
	}
	var t float64
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		var ti float64
		for k, av := range arow {
			if av == 0 {
				continue
			}
			ti += av * b.Data[k*b.C+i]
		}
		t += ti
	}
	return t
}

// CholeskyInto factors SPD a into l (lower triangular, a = l*lᵀ), writing
// only l's lower triangle; entries above the diagonal are left untouched and
// must not be read by callers. Returns ErrSingular if a is not positive
// definite (l's contents are then unspecified).
func CholeskyInto(a, l *Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("matrix: Cholesky on non-square %dx%d", n, c))
	}
	if l.R != n || l.C != n {
		panic(fmt.Sprintf("matrix: CholeskyInto out dims %dx%d, want %dx%d", l.R, l.C, n, n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return nil
}

// CholeskySolveInto solves a*x = b given the Cholesky factor l, using y as
// forward-substitution scratch and writing the solution into x (both length
// n, fully overwritten).
func CholeskySolveInto(l *Dense, b, y, x []float64) []float64 {
	n := l.R
	if len(b) != n || len(y) != n || len(x) != n {
		panic("matrix: CholeskySolveInto length mismatch")
	}
	// Forward substitution L*y = b.
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back substitution Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// InverseInto inverts square a into out using w (n x 2n) as Gauss–Jordan
// scratch; both are fully overwritten.
func InverseInto(a, out, w *Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("matrix: Inverse on non-square %dx%d", n, c))
	}
	if out.R != n || out.C != n || w.R != n || w.C != 2*n {
		panic("matrix: InverseInto scratch dims mismatch")
	}
	// Gauss–Jordan with partial pivoting on [A | I].
	for i := 0; i < n; i++ {
		row := w.Row(i)
		copy(row[:n], a.Row(i))
		for j := n; j < 2*n; j++ {
			row[j] = 0
		}
		row[n+i] = 1
	}
	for k := 0; k < n; k++ {
		p := k
		mx := math.Abs(w.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(w.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		if mx < 1e-300 {
			return ErrSingular
		}
		if p != k {
			rp, rk := w.Row(p), w.Row(k)
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
		}
		pivInv := 1 / w.At(k, k)
		rk := w.Row(k)
		for j := range rk {
			rk[j] *= pivInv
		}
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			f := w.At(i, k)
			if f == 0 {
				continue
			}
			ri := w.Row(i)
			for j := range ri {
				ri[j] -= f * rk[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		copy(out.Row(i), w.Row(i)[n:])
	}
	return nil
}

// SPDWorkspace holds the reusable scratch of SolveSPDInto: the Cholesky
// factor plus per-worker substitution buffers. The zero value is ready to
// use; buffers grow on demand and are retained across calls, so a steady
// state of same-sized solves allocates nothing.
type SPDWorkspace struct {
	l    *Dense
	subs [][]float64 // per worker: y then x, each length n
	// run is built once and reused so the ForWorker closure does not escape
	// (and allocate) on every solve; b/out/n carry the per-call arguments.
	run    func(w, lo, hi int)
	b, out *Dense
	n      int
}

func (ws *SPDWorkspace) ensure(n int) {
	if ws.l == nil || ws.l.R != n {
		ws.l = NewDense(n, n)
	}
	workers := parallel.Workers()
	for len(ws.subs) < workers {
		ws.subs = append(ws.subs, nil)
	}
	for w := 0; w < workers; w++ {
		if len(ws.subs[w]) < 2*n {
			ws.subs[w] = make([]float64, 2*n)
		}
	}
	if ws.run == nil {
		ws.run = func(w, lo, hi int) {
			l, b, out, n := ws.l, ws.b, ws.out, ws.n
			sub := ws.subs[w]
			y, x := sub[:n], sub[n:2*n]
			for i := lo; i < hi; i++ {
				CholeskySolveInto(l, b.Row(i), y, x)
				copy(out.Row(i), x)
			}
		}
	}
}

// SolveSPDInto solves a*X = b columnwise into out (dims b.R x b.C) using ws
// for all intermediate storage. The rare non-positive-definite fallback path
// (general inverse) still allocates.
func SolveSPDInto(a, b, out *Dense, ws *SPDWorkspace) error {
	if a.R != a.C || a.C != b.C {
		panic(fmt.Sprintf("matrix: SolveSPD dims a %dx%d, b %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != b.R || out.C != b.C {
		panic(fmt.Sprintf("matrix: SolveSPDInto out dims %dx%d, want %dx%d", out.R, out.C, b.R, b.C))
	}
	n := a.R
	ws.ensure(n)
	if err := CholeskyInto(a, ws.l); err != nil {
		// Fall back to a general inverse for nearly-singular XtX.
		inv, ierr := Inverse(a)
		if ierr != nil {
			return err
		}
		b.MulInto(inv, out)
		return nil
	}
	// Each right-hand-side row solves independently against the shared
	// (read-only) factor, so rows parallelize bit-identically; the worker
	// index selects private substitution scratch.
	ws.b, ws.out, ws.n = b, out, n
	parallel.ForWorker(b.R, flopGrain(2*b.C*b.C), ws.run)
	ws.b, ws.out = nil, nil
	return nil
}

// sparseMulBody is Sparse.MulDenseInto's chunk loop with its captures as
// fields, pooled so the projection-serving hot path performs no per-call
// closure allocation (same discipline as mulBody).
type sparseMulBody struct {
	m      *Sparse
	b, out *Dense
}

var sparseMulBodies = parallel.NewPool(func() *sparseMulBody { return new(sparseMulBody) })

func (t *sparseMulBody) Run(lo, hi int) {
	m, b, out := t.m, t.b, t.out
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for k, j := range row.Indices {
			AXPY(row.Values[k], b.Row(j), orow)
		}
	}
}

// MulDenseInto computes out = m*b for sparse m and dense b, overwriting out
// (dims m.R x b.C).
func (m *Sparse) MulDenseInto(b, out *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("matrix: Sparse.MulDense dims %dx%d * %dx%d", m.R, m.C, b.R, b.C))
	}
	if out.R != m.R || out.C != b.C {
		panic(fmt.Sprintf("matrix: Sparse.MulDenseInto out dims %dx%d, want %dx%d", out.R, out.C, m.R, b.C))
	}
	out.Zero()
	// Row-parallel: every output row depends only on its own sparse row, so
	// chunks are disjoint and each row's AXPY sequence is unchanged.
	perRow := 2 * b.C
	if m.R > 0 {
		perRow = 2 * (m.NNZ()/m.R + 1) * b.C
	}
	body := sparseMulBodies.Get()
	body.m, body.b, body.out = m, b, out
	parallel.ForRunner(m.R, flopGrain(perRow), body)
	*body = sparseMulBody{}
	sparseMulBodies.Put(body)
	return out
}

// subRowBody subtracts a row vector from every row of a band; the demeaning
// step of the centered products, pooled for the same zero-allocation reason
// as the mul bodies.
type subRowBody struct {
	out *Dense
	row []float64
}

var subRowBodies = parallel.NewPool(func() *subRowBody { return new(subRowBody) })

func (t *subRowBody) Run(lo, hi int) {
	out, sub := t.out, t.row
	for i := lo; i < hi; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] -= sub[j]
		}
	}
}

// MeanMulInto computes out = meanᵀ*b (a 1 x b.C row vector), overwriting out.
// It skips zero mean entries and accumulates in ascending j with AXPY —
// exactly the loop CenteredMulDense historically ran per call — so callers
// that precompute the mean's image stay bit-identical to the allocating path.
func MeanMulInto(mean []float64, b *Dense, out []float64) []float64 {
	if len(mean) != b.R {
		panic(fmt.Sprintf("matrix: MeanMulInto mean len %d, matrix %dx%d", len(mean), b.R, b.C))
	}
	if len(out) != b.C {
		panic(fmt.Sprintf("matrix: MeanMulInto out len %d, want %d", len(out), b.C))
	}
	for j := range out {
		out[j] = 0
	}
	for j, mj := range mean {
		if mj == 0 {
			continue
		}
		AXPY(mj, b.Row(j), out)
	}
	return out
}

// CenteredMulDenseInto computes out = (Y - 1·meanᵀ)·b via mean propagation
// with the mean's image meanB = meanᵀ·b already computed (see MeanMulInto):
// out = Y·b, then meanB subtracted from every row. Allocation-free, and
// bit-identical to CenteredMulDense, which delegates here.
func (m *Sparse) CenteredMulDenseInto(b, out *Dense, meanB []float64) *Dense {
	if len(meanB) != b.C {
		panic(fmt.Sprintf("matrix: CenteredMulDenseInto meanB len %d, want %d", len(meanB), b.C))
	}
	m.MulDenseInto(b, out)
	body := subRowBodies.Get()
	body.out, body.row = out, meanB
	parallel.ForRunner(out.R, flopGrain(out.C), body)
	*body = subRowBody{}
	subRowBodies.Put(body)
	return out
}

// CenteredMulInto is the dense-input counterpart of CenteredMulDenseInto:
// out = (Y - 1·meanᵀ)·b for dense Y, with meanB = meanᵀ·b precomputed.
func (m *Dense) CenteredMulInto(b, out *Dense, meanB []float64) *Dense {
	if len(meanB) != b.C {
		panic(fmt.Sprintf("matrix: CenteredMulInto meanB len %d, want %d", len(meanB), b.C))
	}
	m.MulInto(b, out)
	body := subRowBodies.Get()
	body.out, body.row = out, meanB
	parallel.ForRunner(out.R, flopGrain(out.C), body)
	*body = subRowBody{}
	subRowBodies.Put(body)
	return out
}

// MulBTAddRowInto computes out = x·bᵀ + 1·addRow: the reconstruction map
// (latent positions back through the components, plus the mean), overwriting
// out (dims x.R x b.R). The product accumulates first and the row add is a
// separate pass, matching the allocating MulBT-then-add composition bit for
// bit. Allocation-free.
func (x *Dense) MulBTAddRowInto(b, out *Dense, addRow []float64) *Dense {
	if len(addRow) != b.R {
		panic(fmt.Sprintf("matrix: MulBTAddRowInto addRow len %d, want %d", len(addRow), b.R))
	}
	x.MulBTInto(b, out)
	body := addRowBodies.Get()
	body.out, body.row = out, addRow
	parallel.ForRunner(out.R, flopGrain(out.C), body)
	*body = addRowBody{}
	addRowBodies.Put(body)
	return out
}

// addRowBody adds a row vector to every row of a band (see subRowBody).
type addRowBody struct {
	out *Dense
	row []float64
}

var addRowBodies = parallel.NewPool(func() *addRowBody { return new(addRowBody) })

func (t *addRowBody) Run(lo, hi int) {
	out, add := t.out, t.row
	for i := lo; i < hi; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += add[j]
		}
	}
}

// DensifyCenteredInto materializes row - mean as a fully dense "sparse"
// vector using caller-provided scratch (idx, vals, both length row.Len,
// fully overwritten) — the in-place form of the densify step that the
// mean-propagation optimization exists to avoid.
func DensifyCenteredInto(row SparseVector, mean []float64, idx []int, vals []float64) SparseVector {
	if len(idx) != row.Len || len(vals) != row.Len {
		panic("matrix: DensifyCenteredInto scratch length mismatch")
	}
	for j := range idx {
		idx[j] = j
		vals[j] = -mean[j]
	}
	for k, j := range row.Indices {
		vals[j] += row.Values[k]
	}
	return SparseVector{Len: row.Len, Indices: idx, Values: vals}
}
