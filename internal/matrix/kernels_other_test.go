//go:build !amd64 || race

package matrix

import "testing"

// forEachKernelPath runs f once: this build has only the Go loops.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) { t.Run("go", f) }
