package matrix

// The row kernels under the EM hot loops: y += a·x (axpy, behind AXPY) and
// its four-term form AXPY4. On amd64 they run in AVX assembly
// (kernels_amd64.s) when the CPU has AVX; the Go loops below are the path
// without AVX, on other architectures and in a race build, and the
// reference the tests hold the assembly to. Lengths below 4 stay in Go.
//
// Every lane of the assembly is one element of y, and it takes the Go loop's
// operations in the Go loop's order: a separately rounded multiply, then an
// add. No FMA is used (the Go compiler emits one on amd64 only for an
// explicit math.FMA), so every result is the same bit for bit on either
// path, but for a NaN's payload (see sameFloat in kernels_test.go).

// axpy computes y += a·x over len(x) elements; y must be at least as long.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX && len(x) >= 4 {
		axpyAVX(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// AXPY4 computes y += a0·x0, then y += a1·x1, y += a2·x2 and y += a3·x3,
// element by element in that order: bit-identical to four AXPY calls in
// that order, with one pass over y instead of four.
func AXPY4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	if n := len(y); len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic("matrix: AXPY4 length mismatch")
	}
	if useAVX && len(y) >= 4 {
		axpy4AVX(a0, a1, a2, a3, x0, x1, x2, x3, y)
		return
	}
	axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

// axpyGo is axpy as a Go loop.
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)] // no per-element bounds check
	for i, v := range x {
		y[i] += a * v
	}
}

// axpy4Go is AXPY4 as a Go loop.
func axpy4Go(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for i, v := range y {
		v += a0 * x0[i]
		v += a1 * x1[i]
		v += a2 * x2[i]
		v += a3 * x3[i]
		y[i] = v
	}
}
