package matrix

import (
	"fmt"
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
// local pass's block) into XtX and mirrors it; MulBTInto forms one block of
// the sampled error's images X·Cᵀ (16 rows, d = 50, D = 2000).
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
		spd := a.MulT(a)
		spd.AddScaledIdentity(float64(n))
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
}
