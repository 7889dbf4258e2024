//go:build !amd64 || race

package matrix

// Without the amd64 assembly, and in a race build (so the race detector sees
// every element access), the row kernels run the Go loops.
const useAVX = false

func axpyAVX(a float64, x, y []float64) { panic("matrix: no assembly kernels in this build") }

func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	panic("matrix: no assembly kernels in this build")
}
