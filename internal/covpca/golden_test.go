package covpca

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fingerprint hashes the exact float64 bits of a fitted model so the
// scratch-reuse refactor can prove bit-identity to the pre-change tree.
func fingerprint(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range res.Components.Data {
		put(v)
	}
	for _, v := range res.Eigenvalues {
		put(v)
	}
	put(res.Err)
	put(res.Metrics.SimSeconds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Pre-refactor fingerprints by input row count; a missing entry makes the
// test print the observed hash so it can be pinned. The 400-row fit has more
// rows than the error metric's 256-row sample, so its Err pins which rows
// the sample draws.
var goldenHashes = map[int]string{
	150: "1b0d8bf60de53686",
	400: "d5e911d1c04c2e9a",
}

func TestGoldenFitBitIdentical(t *testing.T) {
	for _, n := range []int{150, 400} {
		_, rows := plantedData(n, 40, 3, 41)
		res, err := FitSpark(testCtx(), rows, 40, DefaultOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(res)
		want, ok := goldenHashes[n]
		if !ok {
			t.Fatalf("no golden hash for %d rows; captured %s", n, got)
		}
		if got != want {
			t.Fatalf("%d-row fit changed: fingerprint %s, golden %s", n, got, want)
		}
	}
}
