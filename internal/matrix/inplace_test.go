package matrix

import (
	"math"
	"strconv"
	"testing"

	"spca/internal/parallel"
)

func randDense(r, c int, seed uint64) *Dense {
	rng := NewRNG(seed)
	return NormRnd(rng, r, c)
}

func bitsEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], v)
		}
	}
}

func TestIntoVariantsMatchAllocatingKernels(t *testing.T) {
	a := randDense(37, 23, 1)
	b := randDense(23, 19, 2)
	out := NewDense(37, 19)
	// Dirty the output to prove Into fully overwrites.
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	bitsEqual(t, "MulInto", a.MulInto(b, out), a.Mul(b))

	c := randDense(37, 19, 3)
	outT := NewDense(23, 19)
	outT.Data[0] = math.NaN()
	bitsEqual(t, "MulTInto", a.MulTInto(c, outT), a.MulT(c))

	d := randDense(41, 23, 4)
	outBT := NewDense(37, 41)
	outBT.Data[0] = math.NaN()
	bitsEqual(t, "MulBTInto", a.MulBTInto(d, outBT), a.MulBT(d))

	x := randDense(1, 37, 5).Row(0)
	vt := make([]float64, 23)
	vt[0] = math.NaN()
	got := a.MulVecTInto(x, vt)
	want := a.MulVecT(x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("MulVecTInto element %d differs", i)
		}
	}
}

// refMul is out = a*b by the plain i-k-j loop with the a == 0 skip: each
// out[i][j] sums over k in ascending order, the order MulInto keeps.
func refMul(a, b *Dense) *Dense {
	out := NewDense(a.R, b.C)
	for i := 0; i < a.R; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// refMulT is out = aᵀ*b by the plain loop with the a == 0 skip: each
// out[k][j] sums over i in ascending order, the order MulTInto keeps.
func refMulT(a, b *Dense) *Dense {
	out := NewDense(a.C, b.C)
	for i := 0; i < a.R; i++ {
		brow := b.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			orow := out.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// TestTiledMulIntoBitIdentical pins MulInto, and its chunk body at k-tile
// widths that leave ragged remainders, against the plain loop bit for bit.
// The operands hold zeros in a against Inf/NaN rows of b, so a kernel that
// dropped the a == 0 skip would surface as a spurious NaN.
func TestTiledMulIntoBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	for _, sh := range []struct{ m, k, n int }{
		{64, 64, 64}, {193, 61, 53}, {97, 128, 17}, {66, 65, 19}, {160, 160, 160},
	} {
		a := sprinkledMat(rng, sh.m, sh.k, 0.3)
		b := nonFiniteMat(rng, sh.k, sh.n)
		for i := 0; i < sh.m; i += 3 {
			a.Set(i, 1, 0)
		}
		want := refMul(a, b)
		bitsEqual(t, "MulInto", a.MulInto(b, NewDense(sh.m, sh.n)), want)
		for _, kBlock := range []int{1, 3, 8, 64, sh.k} {
			body := mulBody{m: a, b: b, out: NewDense(sh.m, sh.n), kBlock: kBlock}
			body.Run(0, sh.m)
			bitsEqual(t, "mulBody kBlock="+strconv.Itoa(kBlock), body.out, want)
		}
	}
}

// TestTiledMulTIntoBitIdentical is the same pin for MulTInto (out = aᵀ*b),
// whose chunk body is run over column bands of awkward widths.
func TestTiledMulTIntoBitIdentical(t *testing.T) {
	rng := NewRNG(23)
	for _, sh := range []struct{ r, c, n int }{
		{64, 64, 64}, {193, 61, 53}, {128, 97, 17}, {65, 66, 19}, {160, 160, 160},
	} {
		a := sprinkledMat(rng, sh.r, sh.c, 0.3)
		b := nonFiniteMat(rng, sh.r, sh.n)
		for k := 0; k < sh.c; k++ {
			a.Set(1, k, 0)
		}
		want := refMulT(a, b)
		bitsEqual(t, "MulTInto", a.MulTInto(b, NewDense(sh.c, sh.n)), want)
		for _, band := range []int{1, 3, 5, sh.c} {
			body := mulTBody{m: a, b: b, out: NewDense(sh.c, sh.n)}
			for lo := 0; lo < sh.c; lo += band {
				body.Run(lo, min(lo+band, sh.c))
			}
			bitsEqual(t, "mulTBody band="+strconv.Itoa(band), body.out, want)
		}
	}
}

// refMulBT is a·bᵀ as one plain dot product per element: over k in
// ascending order, from +0.
func refMulBT(a, b *Dense) *Dense {
	out := NewDense(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			var s float64
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestMulBTIntoMatchesDot pins MulBTInto, whose body takes four output
// columns per pass over a row, against one plain dot product per element:
// at every output width from 1 to 9 (so the four-column blocks leave each
// remainder), and at widths across the j-tile edge, where a tile of 2730
// columns at a.C = 5 ends two columns into a block of four. The wide case
// also runs chunked on four workers.
func TestMulBTIntoMatchesDot(t *testing.T) {
	rng := NewRNG(37)
	for _, k := range []int{1, 5, 17} {
		a := sprinkledMat(rng, 7, k, 0.2)
		for n := 1; n <= 9; n++ {
			b := sprinkledMat(rng, n, k, 0.2)
			bitsEqual(t, "MulBTInto width "+strconv.Itoa(n)+" k "+strconv.Itoa(k), a.MulBTInto(b, NewDense(a.R, n)), refMulBT(a, b))
		}
	}
	a := sprinkledMat(rng, 9, 5, 0.1)
	if jTile := minParallelFlops / (2 * (a.C + 1)); jTile != 2730 {
		t.Fatalf("j-tile at a.C = 5 is %d, the widths below assume 2730", jTile)
	}
	for _, n := range []int{2729, 2731, 2737} {
		b := sprinkledMat(rng, n, a.C, 0.1)
		want := refMulBT(a, b)
		bitsEqual(t, "MulBTInto width "+strconv.Itoa(n), a.MulBTInto(b, NewDense(a.R, n)), want)
		parallel.SetWorkers(4)
		got := a.MulBTInto(b, NewDense(a.R, n))
		parallel.SetWorkers(0)
		bitsEqual(t, "MulBTInto width "+strconv.Itoa(n)+" on 4 workers", got, want)
	}
}

// TestTiledSequentialMatchesParallel pins that chunk boundaries cannot
// change results: one sequential pass of each Mul body matches the pool's
// chunked run (forced to 4 workers) bit for bit, even though MulInto picks
// a different k-tile width than the sequential pass.
func TestTiledSequentialMatchesParallel(t *testing.T) {
	rng := NewRNG(31)
	a := sprinkledMat(rng, 150, 150, 0.2)
	b := sprinkledMat(rng, 150, 150, 0.2)

	parallel.SetWorkers(4)
	par := a.MulInto(b, NewDense(150, 150))
	parT := a.MulTInto(b, NewDense(150, 150))
	parallel.SetWorkers(0)

	seq := mulBody{m: a, b: b, out: NewDense(150, 150), kBlock: 8}
	seq.Run(0, a.R)
	bitsEqual(t, "MulInto parallel vs sequential", seq.out, par)

	seqT := mulTBody{m: a, b: b, out: NewDense(150, 150)}
	seqT.Run(0, a.C)
	bitsEqual(t, "MulTInto parallel vs sequential", seqT.out, parT)
}

func TestAddScaledIntoMatchesScaleThenAdd(t *testing.T) {
	a := randDense(9, 9, 6)
	b := randDense(9, 9, 7)
	want := a.Add(b.Scale(0.37))
	out := NewDense(9, 9)
	bitsEqual(t, "AddScaledInto", AddScaledInto(out, a, 0.37, b), want)
	// Aliasing out with a must give the same result.
	aCopy := a.Clone()
	bitsEqual(t, "AddScaledInto-aliased", AddScaledInto(aCopy, aCopy, 0.37, b), want)
}

func TestTraceMulMatchesMulTrace(t *testing.T) {
	a := randDense(8, 13, 8)
	b := randDense(13, 8, 9)
	got := TraceMul(a, b)
	want := a.Mul(b).Trace()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("TraceMul = %v, Mul().Trace() = %v", got, want)
	}
}

func TestSolveSPDIntoMatchesSolveSPDAndReusesScratch(t *testing.T) {
	g := randDense(6, 6, 10)
	spd := g.MulT(g).AddScaledIdentity(1.5) // SPD by construction
	rhs := randDense(30, 6, 11)
	want, err := SolveSPD(spd, rhs)
	if err != nil {
		t.Fatal(err)
	}
	var ws SPDWorkspace
	out := NewDense(30, 6)
	if err := SolveSPDInto(spd, rhs, out, &ws); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "SolveSPDInto", out, want)

	// Warm workspace: repeated same-size solves must not allocate. Force the
	// pool sequential so goroutine scheduling doesn't count against us.
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)
	if n := testing.AllocsPerRun(20, func() {
		if err := SolveSPDInto(spd, rhs, out, &ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm SolveSPDInto allocated %v per run, want 0", n)
	}
}

func TestInverseIntoReusedScratchIsClean(t *testing.T) {
	a := randDense(5, 5, 12)
	spd := a.MulT(a).AddScaledIdentity(2)
	want, err := Inverse(spd)
	if err != nil {
		t.Fatal(err)
	}
	out := NewDense(5, 5)
	w := NewDense(5, 10)
	// Poison the scratch: InverseInto must fully re-initialize it.
	for i := range w.Data {
		w.Data[i] = math.NaN()
	}
	if err := InverseInto(spd, out, w); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "InverseInto", out, want)
}

func TestSparseMulDenseIntoMatches(t *testing.T) {
	bld := NewSparseBuilder(12)
	rng := NewRNG(13)
	for i := 0; i < 20; i++ {
		var idx []int
		var vals []float64
		for j := 0; j < 12; j++ {
			if rng.Float64() < 0.3 {
				idx = append(idx, j)
				vals = append(vals, rng.NormFloat64())
			}
		}
		bld.AddRow(idx, vals)
	}
	s := bld.Build()
	b := randDense(12, 7, 14)
	out := NewDense(20, 7)
	out.Data[0] = math.NaN()
	bitsEqual(t, "MulDenseInto", s.MulDenseInto(b, out), s.MulDense(b))
}

func TestDensifyCenteredInto(t *testing.T) {
	row := SparseVector{Len: 6, Indices: []int{1, 4}, Values: []float64{2, -3}}
	mean := []float64{0.5, 1, 0, 0.25, 2, 0}
	idx := make([]int, 6)
	vals := make([]float64, 6)
	vals[2] = math.NaN() // must be overwritten
	got := DensifyCenteredInto(row, mean, idx, vals)
	want := []float64{-0.5, 1, 0, -0.25, -5, 0}
	for j := 0; j < 6; j++ {
		if got.Indices[j] != j {
			t.Fatalf("index %d = %d", j, got.Indices[j])
		}
		if got.Values[j] != want[j] {
			t.Fatalf("value %d = %v, want %v", j, got.Values[j], want[j])
		}
	}
}
