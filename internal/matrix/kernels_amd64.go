//go:build amd64 && !race

package matrix

// useAVX selects the assembly kernels. It is set once, from the CPU; only
// tests flip it.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state:
// CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), then XGETBV(0) bits 1
// and 2 (XMM and YMM state).
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&6 == 6
}

//go:noescape
func axpyAVX(a float64, x, y []float64)

//go:noescape
func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
