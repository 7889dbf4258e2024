package svdbidiag

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fingerprint hashes the exact float64 bits of a fitted model: components,
// singular values and the sampled error.
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
	for _, v := range res.Singular {
		put(v)
	}
	put(res.Err)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenHash pins a 400-row fit. The input has more rows than the error
// metric's 256-row sample, so Err also pins which rows the sample draws.
// When empty the test prints the observed hash so it can be pinned.
const goldenHash = "4a4ecee9b66e08c7"

func TestGoldenFitBitIdentical(t *testing.T) {
	_, rows := plantedData(400, 40, 4, 54)
	res, err := FitMapReduce(testEngine(), rows, 40, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprint(res)
	if goldenHash == "" {
		t.Fatalf("no golden hash; captured %s", got)
	}
	if got != goldenHash {
		t.Fatalf("fit changed: fingerprint %s, golden %s", got, goldenHash)
	}
}
