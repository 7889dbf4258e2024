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

// recEmitter keeps a copy of the last value emitted under each key.
type recEmitter map[int][]float64

func (r recEmitter) Emit(k int, v []float64) { r[k] = slices.Clone(v) }
func (recEmitter) AddOps(int64)              {}

// TestPartialXtXBufferMatchesPerRow: a partial takes XtX's latent rows four
// at a time, and every reader of XtX sees what one SymOuterAdd per row
// makes, bit for bit, at 0–9 rows (every remainder of the buffer): merge,
// into an empty partial and into one with rows of its own still buffered;
// into; and the XtX emits of ytxMapper and xtxMapper. A quarter of the
// latent entries are zero, so SymOuterAdd's one-row path runs too.
func TestPartialXtXBufferMatchesPerRow(t *testing.T) {
	rng := matrix.NewRNG(43)
	const dims, d = 40, 7
	for n := 0; n <= 9; n++ {
		rows := make([]matrix.SparseVector, n)
		xs := make([][]float64, n)
		want := matrix.NewDense(d, d)
		for i := range rows {
			rows[i] = kernelRow(rng, dims, rng.Intn(5))
			xs[i] = make([]float64, d)
			for k := range xs[i] {
				if rng.Intn(4) > 0 {
					xs[i][k] = rng.NormFloat64()
				}
			}
			matrix.SymOuterAdd(want, xs[i])
		}
		fill := func(p *partial) *partial {
			for i := range rows {
				p.add(rows[i], xs[i])
			}
			return p
		}
		mirrored := want.Clone()
		matrix.MirrorUpper(mirrored)
		sameBits(t, "into", fill(newPartial(d, dims)).into(newJobSums(dims, d)).xtx.Data, mirrored.Data)

		acc := newPartial(d, dims)
		acc.merge(fill(newPartial(d, dims)))
		sameBits(t, "merge", acc.xtx.Data, want.Data)
		own := fill(newPartial(d, dims))
		own.merge(fill(newPartial(d, dims)))
		twice := want.Clone()
		matrix.AXPY(1, want.Data, twice.Data)
		sameBits(t, "merge into a buffered partial", own.xtx.Data, twice.Data)

		pool := newPartialPool(d, dims)
		m := &ytxMapper{p: pool.Get(), pool: pool}
		m.p.reset()
		fill(m.p)
		out := recEmitter{}
		m.Cleanup(out)
		sameBits(t, "ytxMapper emit", out[keyXtX], want.Data)

		xm := &xtxMapper{d: d}
		out = recEmitter{}
		for _, x := range xs {
			xm.Map(pairYX{x: x}, out)
		}
		xm.Cleanup(out)
		if n > 0 {
			sameBits(t, "xtxMapper emit", out[keyXtX], want.Data)
		}
	}
}

// TestNaiveMapperEmitsFlushedXtX: the naive mapper emits each row's own
// XtX, a single buffered row, so it must flush before the emit.
func TestNaiveMapperEmitsFlushedXtX(t *testing.T) {
	y, em := allocTestDriver(t, 8, 24, 4)
	m := &ytxNaiveMapper{em: em, meanProp: true, p: newPartial(em.d, y.C)}
	for i := 0; i < y.R; i++ {
		out := recEmitter{}
		m.Map(y.Row(i), out)
		xi := make([]float64, em.d)
		latentRow(y.Row(i), em, true, xi)
		want := matrix.NewDense(em.d, em.d)
		matrix.SymOuterAdd(want, xi)
		sameBits(t, "ytxNaiveMapper emit", out[keyXtX], want.Data)
	}
}
