package ssvd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spca/internal/rsvd"
)

// fingerprint hashes the exact float64 bits of a fitted model plus its
// history so the scratch-reuse refactor can prove bit-identity to the
// pre-change tree.
func fingerprint(res *rsvd.Result) string {
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
	put(float64(res.Iterations))
	for _, st := range res.History {
		put(float64(st.Iter))
		put(st.Err)
		put(st.SimSeconds)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Pre-refactor fingerprints; a missing entry makes the test print the
// observed hash so it can be pinned. "rounds-sampled" has more rows than the
// error metric's 256-row sample, so its Err history pins which rows the
// sample draws.
var goldenHashes = map[string]string{
	"rounds":         "0c1d0af1ddfb7d10",
	"power":          "a2b8c72a56556e44",
	"rounds-sampled": "a2cfcad2b5e7ee79",
}

func TestGoldenFitsBitIdentical(t *testing.T) {
	fits := map[string]func() (*rsvd.Result, error){
		"rounds": func() (*rsvd.Result, error) {
			_, rows := plantedData(150, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			return FitMapReduce(testEngine(), rows, 40, opt)
		},
		"power": func() (*rsvd.Result, error) {
			_, rows := plantedData(150, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 1
			opt.PowerIterations = 2
			return FitMapReduce(testEngine(), rows, 40, opt)
		},
		"rounds-sampled": func() (*rsvd.Result, error) {
			_, rows := plantedData(400, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			return FitMapReduce(testEngine(), rows, 40, opt)
		},
	}
	for name, fit := range fits {
		t.Run(name, func(t *testing.T) {
			res, err := fit()
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			want, ok := goldenHashes[name]
			if !ok {
				t.Fatalf("no golden hash for %q; captured %s", name, got)
			}
			if got != want {
				t.Fatalf("fit %q changed: fingerprint %s, golden %s", name, got, want)
			}
		})
	}
}
