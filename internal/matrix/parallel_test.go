package matrix

import (
	"fmt"
	"math"
	"testing"

	"spca/internal/parallel"
)

// withForcedParallel runs f twice — once with the pool forced sequential and
// once with chunked execution forced (4 workers, even on a single-core
// machine) — and returns both results for bit-exact comparison.
func withForcedParallel(f func() *Dense) (seq, par *Dense) {
	parallel.SetSequential(true)
	seq = f()
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	par = f()
	parallel.SetWorkers(0)
	return seq, par
}

func requireBitIdentical(t *testing.T, name string, seq, par *Dense) {
	t.Helper()
	if seq.R != par.R || seq.C != par.C {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, seq.R, seq.C, par.R, par.C)
	}
	for i, v := range seq.Data {
		if math.Float64bits(v) != math.Float64bits(par.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, v, par.Data[i])
		}
	}
}

// sprinkledMat builds a deterministic r×c matrix in which about zeroFrac of
// the entries are exact zeros, so the Mul kernels' a == 0 skip is exercised.
func sprinkledMat(rng *RNG, r, c int, zeroFrac float64) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		if rng.Float64() >= zeroFrac {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// nonFiniteMat is a sprinkledMat with 10% zeros whose rows 1 and 2 hold an
// Inf and a NaN, for checking that the Mul kernels' a == 0 skip masks them.
func nonFiniteMat(rng *RNG, r, c int) *Dense {
	m := sprinkledMat(rng, r, c, 0.1)
	m.Set(1, 1, math.Inf(1))
	m.Set(2, 0, math.NaN())
	return m
}

// requireFiniteRows fails if any entry of the listed rows is NaN or ±Inf.
func requireFiniteRows(t *testing.T, name string, m *Dense, rows []int) {
	t.Helper()
	for _, i := range rows {
		for j, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: masked element (%d,%d) = %v", name, i, j, v)
			}
		}
	}
}

func requireBitIdenticalVec(t *testing.T, name string, seq, par []float64) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: len %d vs %d", name, len(seq), len(par))
	}
	for i, v := range seq {
		if v != par[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, v, par[i])
		}
	}
}

// TestKernelsBitIdenticalUnderParallelism is the contract the whole PR rests
// on: chunked parallel execution must produce bit-for-bit the same floats as
// the sequential kernels, because the experiment reproductions assert exact
// simulated metrics.
func TestKernelsBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(7)
	a := NormRnd(rng, 67, 53)
	b := NormRnd(rng, 53, 41)
	c := NormRnd(rng, 67, 41)

	seq, par := withForcedParallel(func() *Dense { return a.Mul(b) })
	requireBitIdentical(t, "Mul", seq, par)

	seq, par = withForcedParallel(func() *Dense { return a.MulT(c) })
	requireBitIdentical(t, "MulT", seq, par)

	seq, par = withForcedParallel(func() *Dense { return b.MulBT(b) })
	requireBitIdentical(t, "MulBT", seq, par)

	// Ragged shapes with zeros in the left operand and non-finite rows in
	// the right one. Rows 1 and 2 of b hold Inf and NaN; every third row of
	// a (column of a, for MulTInto) has zeros against them. The a == 0 skip
	// must keep masking them, since 0·Inf and 0·NaN are NaN.
	for _, sh := range []struct{ r, k, n int }{
		{64, 64, 64}, {193, 61, 53}, {97, 128, 17}, {66, 65, 19}, {160, 160, 160},
	} {
		name := fmt.Sprintf("MulInto %dx%d*%dx%d", sh.r, sh.k, sh.k, sh.n)
		a := sprinkledMat(rng, sh.r, sh.k, 0.3)
		b := nonFiniteMat(rng, sh.k, sh.n)
		var masked []int
		for i := 0; i < sh.r; i += 3 {
			a.Set(i, 1, 0)
			a.Set(i, 2, 0)
			masked = append(masked, i)
		}
		seq, par := withForcedParallel(func() *Dense { return a.MulInto(b, NewDense(sh.r, sh.n)) })
		requireBitIdentical(t, name, seq, par)
		requireFiniteRows(t, name, seq, masked)
	}
	for _, sh := range []struct{ r, c, n int }{
		{64, 64, 64}, {193, 61, 53}, {128, 97, 17}, {65, 66, 19}, {160, 160, 160},
	} {
		name := fmt.Sprintf("MulTInto %dx%dᵀ*%dx%d", sh.r, sh.c, sh.r, sh.n)
		a := sprinkledMat(rng, sh.r, sh.c, 0.3)
		b := nonFiniteMat(rng, sh.r, sh.n)
		var masked []int
		for k := 0; k < sh.c; k += 3 {
			a.Set(1, k, 0)
			a.Set(2, k, 0)
			masked = append(masked, k)
		}
		seq, par := withForcedParallel(func() *Dense { return a.MulTInto(b, NewDense(sh.c, sh.n)) })
		requireBitIdentical(t, name, seq, par)
		requireFiniteRows(t, name, seq, masked)
	}

	// Sparse kernels, with a low grain so chunking actually engages.
	sb := NewSparseBuilder(97)
	for i := 0; i < 80; i++ {
		var idx []int
		var vals []float64
		for j := i % 3; j < 97; j += 3 + i%5 {
			idx = append(idx, j)
			vals = append(vals, rng.NormFloat64())
		}
		sb.AddRow(idx, vals)
	}
	sp := sb.Build()
	dense := NormRnd(rng, 97, 13)
	mean := make([]float64, 97)
	for j := range mean {
		mean[j] = rng.NormFloat64()
	}

	seq, par = withForcedParallel(func() *Dense { return sp.MulDense(dense) })
	requireBitIdentical(t, "Sparse.MulDense", seq, par)

	seq, par = withForcedParallel(func() *Dense { return sp.CenteredMulDense(mean, dense) })
	requireBitIdentical(t, "Sparse.CenteredMulDense", seq, par)

	x := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	parallel.SetSequential(true)
	vseq := sp.MulVecT(x)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	vpar := sp.MulVecT(x)
	parallel.SetWorkers(0)
	requireBitIdenticalVec(t, "Sparse.MulVecT", vseq, vpar)
}

func TestQRBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(11)
	a := NormRnd(rng, 90, 24)

	parallel.SetSequential(true)
	qSeq, rSeq := QR(a)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	qPar, rPar := QR(a)
	parallel.SetWorkers(0)
	requireBitIdentical(t, "QR.Q", qSeq, qPar)
	requireBitIdentical(t, "QR.R", rSeq, rPar)

	seq, par := withForcedParallel(func() *Dense { return QRR(a) })
	requireBitIdentical(t, "QRR", seq, par)
}

func TestSymEigenBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(13)
	g := NormRnd(rng, 40, 40)
	sym := g.MulT(g) // SPD, symmetric

	parallel.SetSequential(true)
	valsSeq, vecsSeq := SymEigen(sym)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	valsPar, vecsPar := SymEigen(sym)
	parallel.SetWorkers(0)
	requireBitIdenticalVec(t, "SymEigen.vals", valsSeq, valsPar)
	requireBitIdentical(t, "SymEigen.vecs", vecsSeq, vecsPar)
}

func TestSolveSPDBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(17)
	g := NormRnd(rng, 30, 12)
	spd := g.MulT(g).AddScaledIdentity(0.5)
	rhs := NormRnd(rng, 64, 12)

	parallel.SetSequential(true)
	seq, err1 := SolveSPD(spd, rhs)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	par, err2 := SolveSPD(spd, rhs)
	parallel.SetWorkers(0)
	if err1 != nil || err2 != nil {
		t.Fatalf("solve errors: %v, %v", err1, err2)
	}
	requireBitIdentical(t, "SolveSPD", seq, par)
}
