package matrix

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func denseAlmostEq(t *testing.T, got, want *Dense, tol float64) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("dims %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	if d := got.MaxAbsDiff(want); d > tol {
		t.Fatalf("max abs diff %g > %g\ngot  %v\nwant %v", d, tol, got, want)
	}
}

func TestNewDenseFromRows(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.R != 3 || m.C != 2 {
		t.Fatalf("dims %dx%d", m.R, m.C)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestNewDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewDenseFromRows([][]float64{{1, 2}, {3}})
}

func TestDenseAddSubScale(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFromRows([][]float64{{10, 20}, {30, 40}})
	denseAlmostEq(t, a.Add(b), NewDenseFromRows([][]float64{{11, 22}, {33, 44}}), 0)
	denseAlmostEq(t, b.Sub(a), NewDenseFromRows([][]float64{{9, 18}, {27, 36}}), 0)
	denseAlmostEq(t, a.Scale(2), NewDenseFromRows([][]float64{{2, 4}, {6, 8}}), 0)
	c := a.Clone()
	c.AddInPlace(b)
	denseAlmostEq(t, c, a.Add(b), 0)
	c = a.Clone()
	c.ScaleInPlace(-1)
	denseAlmostEq(t, c, a.Scale(-1), 0)
}

func TestDenseMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewDenseFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	want := NewDenseFromRows([][]float64{{58, 64}, {139, 154}})
	denseAlmostEq(t, a.Mul(b), want, 1e-12)
}

func TestDenseMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestDenseMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(1)
	a := NormRnd(rng, 7, 4)
	b := NormRnd(rng, 7, 5)
	denseAlmostEq(t, a.MulT(b), a.T().Mul(b), 1e-12)
}

func TestDenseMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := NormRnd(rng, 6, 4)
	b := NormRnd(rng, 5, 4)
	denseAlmostEq(t, a.MulBT(b), a.Mul(b.T()), 1e-12)
}

func TestDenseTranspose(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.R != 3 || at.C != 2 {
		t.Fatalf("dims %dx%d", at.R, at.C)
	}
	denseAlmostEq(t, at.T(), a, 0)
}

func TestDenseMulVec(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, -1})
	if got[0] != -1 || got[1] != -1 {
		t.Fatalf("MulVec = %v", got)
	}
	gt := a.MulVecT([]float64{1, -1})
	if gt[0] != -2 || gt[1] != -2 {
		t.Fatalf("MulVecT = %v", gt)
	}
}

func TestTraceAndIdentity(t *testing.T) {
	if got := Identity(4).Trace(); got != 4 {
		t.Fatalf("trace(I4) = %v", got)
	}
	d := Diag([]float64{1, 2, 3})
	if got := d.Trace(); got != 6 {
		t.Fatalf("trace(diag(1,2,3)) = %v", got)
	}
}

func TestAddScaledIdentity(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.AddScaledIdentity(10)
	want := NewDenseFromRows([][]float64{{11, 2}, {3, 14}})
	denseAlmostEq(t, got, want, 0)
	// Original untouched.
	if a.At(0, 0) != 1 {
		t.Fatal("AddScaledIdentity mutated receiver")
	}
}

func TestNorms(t *testing.T) {
	a := NewDenseFromRows([][]float64{{3, -4}})
	if !almostEq(a.Frobenius(), 5, 1e-12) {
		t.Fatalf("frobenius = %v", a.Frobenius())
	}
	if !almostEq(a.FrobeniusSq(), 25, 1e-12) {
		t.Fatalf("frobeniusSq = %v", a.FrobeniusSq())
	}
	if !almostEq(a.Norm1(), 7, 1e-12) {
		t.Fatalf("norm1 = %v", a.Norm1())
	}
}

func TestColMeansAndSubRowVec(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 10}, {3, 20}})
	means := a.ColMeans()
	if means[0] != 2 || means[1] != 15 {
		t.Fatalf("col means = %v", means)
	}
	c := a.SubRowVec(means)
	cm := c.ColMeans()
	if !almostEq(cm[0], 0, 1e-15) || !almostEq(cm[1], 0, 1e-15) {
		t.Fatalf("centered col means = %v", cm)
	}
}

func TestColSetColSliceRows(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	col := a.Col(1)
	if col[0] != 2 || col[2] != 6 {
		t.Fatalf("col = %v", col)
	}
	a.SetCol(0, []float64{9, 9, 9})
	if a.At(1, 0) != 9 {
		t.Fatal("SetCol failed")
	}
	s := a.SliceRows(1, 3)
	if s.R != 2 || s.At(0, 1) != 4 {
		t.Fatalf("SliceRows got %v", s)
	}
}

func TestOuterAdd(t *testing.T) {
	out := NewDense(2, 3)
	OuterAdd(out, []float64{1, 2}, []float64{3, 4, 5})
	want := NewDenseFromRows([][]float64{{3, 4, 5}, {6, 8, 10}})
	denseAlmostEq(t, out, want, 0)
	OuterAdd(out, []float64{1, 0}, []float64{1, 1, 1})
	if out.At(0, 0) != 4 || out.At(1, 0) != 6 {
		t.Fatal("OuterAdd accumulate failed")
	}
}

// TestSymOuterAddMirrorMatchesOuterAdd: accumulating rows into the upper
// triangle with SymOuterAdd, in blocks of any size, and mirroring once gives
// the full OuterAdd(out, x, x) accumulation bit for bit. The rows hold exact
// zeros and negative zeros, where the two updates skip different ±0 terms,
// 4-row groups with a zero in one row, and an element (0,1) whose running
// sum returns exactly to 0 before rows with x[0] == 0 and x[1] < 0 add −0 to
// its lower twin in the full update. d is odd.
func TestSymOuterAddMirrorMatchesOuterAdd(t *testing.T) {
	const d, n = 13, 23
	rng := NewRNG(41)
	xs := sprinkledMat(rng, n, d, 0.25)
	xs.Set(0, 0, 1)
	xs.Set(0, 1, 2)
	xs.Set(1, 0, 1)
	xs.Set(1, 1, -2)
	for _, r := range []int{2, 3, 9} {
		xs.Set(r, 0, 0)
		xs.Set(r, 1, -1.5)
	}
	xs.Set(5, 2, math.Copysign(0, -1))
	xs.Set(6, 3, math.Copysign(0, -1))
	want := NewDense(d, d)
	for r := 0; r < n; r++ {
		OuterAdd(want, xs.Row(r), xs.Row(r))
	}
	for _, block := range []int{1, 3, 4, 8, n} {
		got := NewDense(d, d)
		for lo := 0; lo < n; lo += block {
			SymOuterAdd(got, xs.Data[lo*d:min(lo+block, n)*d])
		}
		MirrorUpper(got)
		bitsEqual(t, "SymOuterAdd block "+strconv.Itoa(block), got, want)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("AXPY = %v", y)
	}
	if !almostEq(VecNorm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("VecNorm2")
	}
	if VecNorm1([]float64{-3, 4}) != 7 {
		t.Fatal("VecNorm1")
	}
	v := VecSub([]float64{5, 5}, []float64{2, 3})
	if v[0] != 3 || v[1] != 2 {
		t.Fatal("VecSub")
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := NewRNG(99)
	f := func(seed uint8) bool {
		r := NewRNG(uint64(seed) + rng.Uint64()%1000)
		a := NormRnd(r, 3+int(seed)%4, 2+int(seed)%3)
		b := NormRnd(r, a.C, 2+int(seed)%5)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return lhs.MaxAbsDiff(rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: trace(A*B) == trace(B*A).
func TestTraceCyclicProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed))
		n := 2 + int(seed)%5
		m := 2 + int(seed)%4
		a := NormRnd(r, n, m)
		b := NormRnd(r, m, n)
		return almostEq(a.Mul(b).Trace(), b.Mul(a).Trace(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius² is invariant under transposition.
func TestFrobeniusTransposeProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed) * 7)
		a := NormRnd(r, 1+int(seed)%6, 1+int(seed)%7)
		return almostEq(a.FrobeniusSq(), a.T().FrobeniusSq(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
