package matrix

import (
	"fmt"
	"math/bits"

	"spca/internal/parallel"
)

// The sparse-row operations of mean propagation (§3.1), written once for
// every engine: MulAdd and Dense.MulVecTInto form (Y − 1·Ymᵀ)·B = Y·B −
// 1·(Ym·B), RowBlocks.Scatter and SubOuter (Y − 1·Ymᵀ)ᵀ·X = Yᵀ·X − Ym⊗ΣX,
// each adding an element's terms in the order of a per-nonzero AXPY loop.

// MulAdd adds v·B into out: v_j·B.Row(j) over v's nonzeros, in order, four
// per AXPY4 and the rest one AXPY each. AXPY4 adds its terms in argument
// order, so every element of out sees the additions of a per-nonzero AXPY
// loop in the same order. out must be b.C long.
func (v SparseVector) MulAdd(b *Dense, out []float64) {
	idx, vals := v.Indices, v.Values[:len(v.Indices)]
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		AXPY4(vals[k], vals[k+1], vals[k+2], vals[k+3],
			b.Row(idx[k]), b.Row(idx[k+1]), b.Row(idx[k+2]), b.Row(idx[k+3]), out)
	}
	for ; k < len(idx); k++ {
		AXPY(vals[k], b.Row(idx[k]), out)
	}
}

// SubOuter subtracts u⊗v from m: row j −= u_j·v for every u_j ≠ 0, as one
// AXPY of −u_j each. A zero u_j leaves its row untouched (0·Inf would be
// NaN). Rows are disjoint, so they go to the parallel pool with values
// identical to the sequential loop.
func (m *Dense) SubOuter(u, v []float64) {
	if len(u) != m.R || len(v) != m.C {
		panic(fmt.Sprintf("matrix: SubOuter %dx%d by %d ⊗ %d", m.R, m.C, len(u), len(v)))
	}
	body := subOuterBodies.Get()
	body.m, body.u, body.v = m, u, v
	parallel.ForRunner(m.R, flopGrain(2*m.C), body)
	*body = subOuterBody{}
	subOuterBodies.Put(body)
}

// subOuterBody is SubOuter's chunk loop with its captures as fields, pooled
// like the Mul bodies so a call allocates nothing.
type subOuterBody struct {
	m    *Dense
	u, v []float64
}

var subOuterBodies = parallel.NewPool(func() *subOuterBody { return new(subOuterBody) })

func (t *subOuterBody) Run(lo, hi int) {
	for j := lo; j < hi; j++ {
		if uj := t.u[j]; uj != 0 {
			axpy(-uj, t.v, t.m.Row(j))
		}
	}
}

// rowBlockFloats is the target size of one block of a RowBlocks. A block
// holds the largest power of two of rows that fits, at least one.
const rowBlockFloats = 4096

// RowBlocks is a first-touch store of w-wide rows keyed 0..keys−1, the
// column-keyed accumulator of Yᵀ·X: Row(j) claims a zeroed row on j's first
// touch, from fixed blocks indexed by claim order. Blocks are kept across
// Reset, so a claimed row never moves and growth never copies, and only
// claimed rows need to be emitted, merged or charged.
type RowBlocks struct {
	w       int
	shift   uint        // a block holds 1<<shift rows
	off     []int32     // per key: claim index, -1 while untouched
	touched []int32     // claimed keys, in claim order
	blocks  [][]float64 // the rows, claim order
}

// NewRowBlocks returns an empty store of w-wide rows over keys keys. The
// blocks come on demand.
func NewRowBlocks(w, keys int) RowBlocks {
	ints := make([]int32, 2*keys)
	for j := range ints[:keys] {
		ints[j] = -1
	}
	shift := uint(bits.Len(uint(max(rowBlockFloats/max(w, 1), 1))) - 1)
	return RowBlocks{
		w: w, shift: shift,
		off: ints[:keys:keys], touched: ints[keys : keys : 2*keys],
		blocks: make([][]float64, 0, (keys+1<<shift-1)>>shift),
	}
}

// Touched returns the claimed keys in claim order. It aliases the store.
func (s *RowBlocks) Touched() []int32 { return s.touched }

// Reset unclaims every row. The blocks stay.
func (s *RowBlocks) Reset() {
	for _, j := range s.touched {
		s.off[j] = -1
	}
	s.touched = s.touched[:0]
}

// Row returns key j's row, claiming a zeroed one on first touch.
func (s *RowBlocks) Row(j int) []float64 {
	if o := s.off[j]; o >= 0 {
		return s.slot(int(o))
	}
	return s.claim(j)
}

func (s *RowBlocks) claim(j int) []float64 {
	o := len(s.touched)
	if o>>s.shift == len(s.blocks) {
		s.blocks = append(s.blocks, make([]float64, s.w<<s.shift))
	}
	s.off[j] = int32(o)
	s.touched = append(s.touched, int32(j))
	r := s.slot(o)
	clear(r)
	return r
}

func (s *RowBlocks) slot(o int) []float64 {
	k := (o & (1<<s.shift - 1)) * s.w
	return s.blocks[o>>s.shift][k : k+s.w : k+s.w]
}

// Scatter adds yᵀ·x: y_j·x into row j for each of y's nonzeros, in order,
// one AXPY each.
func (s *RowBlocks) Scatter(y SparseVector, x []float64) {
	for k, j := range y.Indices {
		AXPY(y.Values[k], x, s.Row(j))
	}
}
