package rsvd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fingerprint hashes the exact float64 bits of a fitted model plus its
// history, so future refactors must prove bit-identity to this tree.
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
	for _, v := range res.Mean {
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

// Pinned fingerprints; a missing entry makes the test print the observed
// hash so it can be pinned. The "-sampled" fits have more rows than the
// error metric's 256-row sample, so their Err history pins which rows the
// sample draws.
var goldenHashes = map[string]string{
	"mapreduce":         "d0071af6473269d5",
	"spark":             "abbc94bfee4c5de3",
	"mapreduce-sampled": "501b4f4910e18a3a",
	"spark-sampled":     "71dc6ad507b77498",
}

func TestGoldenFitsBitIdentical(t *testing.T) {
	fits := map[string]func() (*Result, error){
		"mapreduce": func() (*Result, error) {
			_, rows := plantedData(150, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			opt.PowerIterations = 1
			return FitMapReduce(testEngine(), rows, 40, opt)
		},
		"spark": func() (*Result, error) {
			_, rows := plantedData(150, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			opt.PowerIterations = 1
			return FitSpark(testCtx(), rows, 40, opt)
		},
		"mapreduce-sampled": func() (*Result, error) {
			_, rows := plantedData(400, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			return FitMapReduce(testEngine(), rows, 40, opt)
		},
		"spark-sampled": func() (*Result, error) {
			_, rows := plantedData(400, 40, 3, 31)
			opt := DefaultOptions(3)
			opt.MaxRounds = 2
			return FitSpark(testCtx(), rows, 40, opt)
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
