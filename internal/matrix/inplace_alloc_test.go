package matrix

import (
	"testing"

	"spca/internal/parallel"
)

// TestInPlaceKernelsZeroAllocs is the allocation gate for the hot in-place
// kernels: on warm workspaces MulInto, MulTInto, MulBTInto, the XtX update
// (SymOuterAdd and MirrorUpper) and SolveSPDInto must perform zero
// allocations per call. The gate measures the dispatch path, so it forces
// sequential mode: the truly-parallel path inevitably
// allocates for its worker goroutines (on every kernel, including
// SolveSPDInto), but the per-call closure escape this gate guards against
// happened on the inline path too — it is the caller-side allocation the
// pooled Runner bodies exist to eliminate.
func TestInPlaceKernelsZeroAllocs(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)

	rng := NewRNG(11)
	const n = 64
	a := NormRnd(rng, n, n)
	b := NormRnd(rng, n, n)
	out := NewDense(n, n)
	spd := a.MulT(a)
	spd.AddScaledIdentity(float64(n))
	rhs := NormRnd(rng, 16, n)
	sol := NewDense(16, n)
	var ws SPDWorkspace

	cases := []struct {
		name string
		fn   func()
	}{
		{"MulInto", func() { a.MulInto(b, out) }},
		{"MulTInto", func() { a.MulTInto(b, out) }},
		{"MulBTInto", func() { a.MulBTInto(b, out) }},
		{"SymOuterAdd+MirrorUpper", func() { SymOuterAdd(out, b.Data); MirrorUpper(out) }},
		{"SolveSPDInto", func() {
			if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.fn() // warm pools and workspaces outside the measured runs
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestForRunnerMatchesFor checks the Runner dispatch path chunks identically
// to the closure path, including under forced multi-worker chunking.
func TestForRunnerMatchesFor(t *testing.T) {
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	rng := NewRNG(12)
	a := NormRnd(rng, 97, 53)
	b := NormRnd(rng, 53, 41)
	want := a.Mul(b)
	got := NewDense(97, 41)
	a.MulInto(b, got)
	if want.MaxAbsDiff(got) != 0 {
		t.Fatal("pooled Runner dispatch not bit-identical to allocating path")
	}
	gotT := NewDense(53, 53)
	wantT := a.MulT(a)
	a.MulTInto(a, gotT)
	if wantT.MaxAbsDiff(gotT) != 0 {
		t.Fatal("MulTInto Runner dispatch not bit-identical")
	}
}
