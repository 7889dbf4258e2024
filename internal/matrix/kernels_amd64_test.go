//go:build amd64 && !race

package matrix

import "testing"

// forEachKernelPath runs f with the AVX kernels (when the CPU has them) and
// then with the Go loops, and restores the detected setting.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	detected := useAVX
	defer func() { useAVX = detected }()
	if detected {
		useAVX = true
		t.Run("avx", f)
	} else {
		t.Log("the CPU has no AVX: only the Go loops run")
	}
	useAVX = false
	t.Run("go", f)
}
