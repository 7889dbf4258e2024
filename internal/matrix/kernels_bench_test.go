package matrix

import (
	"fmt"
	"slices"
	"testing"

	"spca/internal/parallel"
)

// benchSeqPar runs the kernel once per iteration under both pool modes so
// per-kernel speedup can be read straight off the seq/par sub-benchmark pair.
func benchSeqPar(b *testing.B, fn func()) {
	b.Run("seq", func(b *testing.B) {
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	b.Run("par", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

func BenchmarkKernelsMul(b *testing.B) {
	rng := NewRNG(1)
	for _, n := range []int{128, 384} {
		a := NormRnd(rng, n, n)
		c := NormRnd(rng, n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSeqPar(b, func() { a.Mul(c) })
		})
	}
}

func BenchmarkKernelsMulT(b *testing.B) {
	rng := NewRNG(2)
	a := NormRnd(rng, 2048, 64)
	c := NormRnd(rng, 2048, 64)
	benchSeqPar(b, func() { a.MulT(c) })
}

func BenchmarkKernelsMulBT(b *testing.B) {
	rng := NewRNG(3)
	a := NormRnd(rng, 1024, 64)
	c := NormRnd(rng, 1024, 64)
	benchSeqPar(b, func() { a.MulBT(c) })
}

func BenchmarkKernelsSparseMulDense(b *testing.B) {
	rng := NewRNG(4)
	const d, n, k = 4096, 2048, 32
	sb := NewSparseBuilder(d)
	for i := 0; i < n; i++ {
		var idx []int
		var vals []float64
		for j := i % 7; j < d; j += 29 {
			idx = append(idx, j)
			vals = append(vals, rng.NormFloat64())
		}
		sb.AddRow(idx, vals)
	}
	sp := sb.Build()
	dense := NormRnd(rng, d, k)
	benchSeqPar(b, func() { sp.MulDense(dense) })
}

func BenchmarkKernelsQRR(b *testing.B) {
	rng := NewRNG(5)
	a := NormRnd(rng, 1024, 48)
	benchSeqPar(b, func() { QRR(a) })
}

func BenchmarkKernelsSymEigen(b *testing.B) {
	rng := NewRNG(6)
	g := NormRnd(rng, 96, 96)
	sym := g.MulT(g)
	benchSeqPar(b, func() { SymEigen(sym) })
}

// BenchmarkKernelsInPlace measures the *Into kernel variants on warm
// workspaces: steady-state allocs/op must be exactly 0 (that is the contract
// the pooled EM and sketch paths are built on). The Mul kernels dispatch via
// pooled parallel.Runner bodies and SolveSPDInto caches its ForWorker closure
// in the workspace, so none of them allocate once warm; the AllocsPerRun gate
// in inplace_alloc_test.go pins this. On more than one core the pool's own
// dispatch allocates (2 allocs/op at two workers).
//
// XtXUpdate and MulBTInto time the two hottest loops of an EM iteration at
// perfbench's shape, with the pool sequential so they read the loop alone at
// 0 allocs/op: XtXUpdate folds one block of 256 latent rows (d = 50, the
// local pass's block) into XtX and mirrors it; MulBTInto forms X·Cᵀ for one
// block of 16 rows (d = 50, D = 2000). The last three cases time the row
// kernels the same way: AXPY4 at d = 50 (1024 calls per op); LatentRows,
// the latent rows of 2000 Tweets-like rows (about 8 nonzeros each over
// D = 2000, popular columns more often) at d = 50 through MulAdd, the row
// kernel of every engine; and SolveSPDIntoServeFit, the M-step
// solve at the served model's shape (1000 right-hand sides, d = 50).
// MulIntoServe times the served transform's product, sequential: 1 or 4
// Tweets-like rows (about 8 nonzeros in D = 1000) travelling dense, times
// the 1000×50 projection, 256 products per op.
func BenchmarkKernelsInPlace(b *testing.B) {
	rng := NewRNG(7)
	const n = 192
	a := NormRnd(rng, n, n)
	c := NormRnd(rng, n, n)
	out := NewDense(n, n)
	b.Run("MulInto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.MulInto(c, out)
		}
	})
	b.Run("MulTInto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.MulTInto(c, out)
		}
	})
	b.Run("XtXUpdate", func(b *testing.B) {
		xs, xtx := NormRnd(rng, 256, 50), NewDense(50, 50)
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SymOuterAdd(xtx, xs.Data)
			MirrorUpper(xtx)
		}
	})
	b.Run("MulBTInto", func(b *testing.B) {
		xs, cm, rs := NormRnd(rng, 16, 50), NormRnd(rng, 2000, 50), NewDense(16, 2000)
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			xs.MulBTInto(cm, rs)
		}
	})
	b.Run("SolveSPDInto", func(b *testing.B) {
		spd := a.MulT(a).AddScaledIdentity(float64(n))
		rhs := NormRnd(rng, 64, n)
		sol := NewDense(64, n)
		var ws SPDWorkspace
		if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil { // warm the workspace
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AXPY4", func(b *testing.B) {
		xs, y := NormRnd(rng, 4, 50), make([]float64, 50)
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for range 1024 { // one op is 1024 calls, so the timer's resolution does not show
				benchAXPY4(0.5, -0.25, 0.125, 2, xs.Row(0), xs.Row(1), xs.Row(2), xs.Row(3), y)
			}
		}
	})
	b.Run("LatentRows", func(b *testing.B) {
		const rows, dims, d = 2000, 2000, 50
		sp := tweetsLikeRows(rng, rows, dims)
		cm, xs := NormRnd(rng, dims, d), NewDense(rows, d)
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				xi := xs.Row(r)
				clear(xi)
				sp.Row(r).MulAdd(cm, xi)
			}
		}
	})
	b.Run("SolveSPDIntoServeFit", func(b *testing.B) {
		g := NormRnd(rng, 50, 50)
		spd := g.MulT(g).AddScaledIdentity(50)
		rhs, sol := NormRnd(rng, 1000, 50), NewDense(1000, 50)
		var ws SPDWorkspace
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil { // warm the workspace
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, rows := range []int{1, 4} {
		b.Run(fmt.Sprintf("MulIntoServe/rows=%d", rows), func(b *testing.B) {
			const dims, d = 1000, 50
			sp := tweetsLikeRows(rng, rows, dims)
			y, p, out := NewDense(rows, dims), NormRnd(rng, dims, d), NewDense(rows, d)
			for r := 0; r < rows; r++ {
				row := sp.Row(r)
				for k, j := range row.Indices {
					y.Set(r, j, row.Values[k])
				}
			}
			parallel.SetSequential(true)
			defer parallel.SetSequential(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for range 256 {
					y.MulInto(p, out)
				}
			}
		})
	}
}

// benchAXPY4 is y += a0·x0 + a1·x1 + a2·x2 + a3·x3, added in that order.
func benchAXPY4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	AXPY4(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

// tweetsLikeRows draws n sparse rows over dims columns with 4–12 distinct
// nonzeros each (about 8), a column's chance falling with its index.
func tweetsLikeRows(rng *RNG, n, dims int) *Sparse {
	sb := NewSparseBuilder(dims)
	seen := make([]bool, dims)
	for i := 0; i < n; i++ {
		var idx []int
		for nnz := 4 + rng.Intn(9); len(idx) < nnz; {
			u := rng.Float64()
			if j := int(float64(dims) * u * u * u); !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		slices.Sort(idx)
		vals := make([]float64, len(idx))
		for k, j := range idx {
			seen[j] = false
			vals[k] = 1
		}
		sb.AddRow(idx, vals)
	}
	return sb.Build()
}
