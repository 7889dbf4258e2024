package matrix

import (
	"math"
	"slices"
	"testing"
)

// kernelEdges are the float edge cases the row kernels are tested on: signed
// zeros, the smallest subnormal, a value whose products overflow, the
// infinities and NaN.
var kernelEdges = []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}

// kernelValue draws a normal value or, with edges set, an edge case one time
// in four.
func kernelValue(rng *RNG, edges bool) float64 {
	if edges && rng.Intn(4) == 0 {
		return kernelEdges[rng.Intn(len(kernelEdges))]
	}
	return rng.NormFloat64()
}

func kernelVec(rng *RNG, n int, edges bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelValue(rng, edges)
	}
	return v
}

// sameFloat compares two results bit for bit, except that any two NaNs
// match. Where both operands of an add are NaN, x86 returns the first one,
// and the Go compiler orders a commutative add's operands by register
// allocation (the Go loop of AXPY4 adds the product first in one term and
// last in another), so a NaN's payload is not a property of the loop.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d of %d is %v (%#x), want %v (%#x)", name, i, len(want),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowKernelsMatchGoLoops holds axpy and AXPY4 to the Go loops, on the
// assembly path and on the Go path: ragged lengths around the four-wide
// sweep, operands starting 0–3 elements into their slices (so the vector
// loads are unaligned), and edge-case values. The elements of y's backing
// array outside the slice must stay as they were.
func TestRowKernelsMatchGoLoops(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 49, 50, 51, 2729, 2730, 2731}
	forEachKernelPath(t, func(t *testing.T) {
		for _, edges := range []bool{false, true} {
			rng := NewRNG(31)
			for _, n := range lengths {
				for off := 0; off < 4; off++ {
					var xs [4][]float64
					var as [4]float64
					for i := range xs {
						xs[i] = kernelVec(rng, n+4, edges)[off : off+n]
						as[i] = kernelValue(rng, edges)
					}
					buf := kernelVec(rng, n+4, edges)
					check := func(name string, run, ref func(y []float64)) {
						got, want := slices.Clone(buf), slices.Clone(buf)
						run(got[off : off+n])
						ref(want[off : off+n])
						sameFloats(t, name, got, want)
					}
					check("axpy", func(y []float64) { axpy(as[0], xs[0], y) },
						func(y []float64) { axpyGo(as[0], xs[0], y) })
					check("AXPY4", func(y []float64) { AXPY4(as[0], as[1], as[2], as[3], xs[0], xs[1], xs[2], xs[3], y) },
						func(y []float64) { axpy4Go(as[0], as[1], as[2], as[3], xs[0], xs[1], xs[2], xs[3], y) })
					check("AXPY4 vs four AXPYs", func(y []float64) { AXPY4(as[0], as[1], as[2], as[3], xs[0], xs[1], xs[2], xs[3], y) },
						func(y []float64) {
							for i := range xs {
								AXPY(as[i], xs[i], y)
							}
						})
					if t.Failed() {
						t.Fatalf("n=%d offset=%d edges=%v", n, off, edges)
					}
				}
			}
		}
	})
}

func TestAXPY4LengthMismatchPanics(t *testing.T) {
	for i := 0; i < 5; i++ {
		v := [5][]float64{make([]float64, 5), make([]float64, 5), make([]float64, 5), make([]float64, 5), make([]float64, 5)}
		v[i] = v[i][:4]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AXPY4 with operand %d short did not panic", i)
				}
			}()
			AXPY4(1, 2, 3, 4, v[0], v[1], v[2], v[3], v[4])
		}()
	}
}
