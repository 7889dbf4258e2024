package ppca

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/matrix"
)

// fingerprint hashes the exact float64 bit patterns of a fitted model —
// components, mean, noise variance, and the per-iteration history including
// the simulated-time accounting — so any change to results OR metrics flips
// the hash. The golden values below were captured on the tree before the
// scratch-reuse refactor; the refactor must keep every fit bit-identical.
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
	for _, v := range res.Mean {
		put(v)
	}
	put(res.SS)
	put(float64(res.Iterations))
	for _, st := range res.History {
		put(float64(st.Iter))
		put(st.Err)
		put(st.SS)
		put(st.SimSeconds)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenFits enumerates every fit path and ablation we pin. Each case must
// be deterministic: fixed seeds, fixed MaxIter, Tol=0 so no early stop.
func goldenFits() map[string]func() (*Result, error) {
	mk := func(d, iters int) Options {
		opt := DefaultOptions(d)
		opt.MaxIter = iters
		opt.Tol = 0
		return opt
	}
	return map[string]func() (*Result, error){
		"local": func() (*Result, error) {
			return FitLocal(lowRankSparse(150, 40, 3, 11), mk(3, 6))
		},
		"local-smartguess": func() (*Result, error) {
			opt := mk(3, 4)
			opt.SmartGuess = true
			opt.SmartGuessRows = 30
			return FitLocal(lowRankSparse(300, 40, 3, 11), opt)
		},
		"stream": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			return FitStream(matrix.SparseSource{M: y}, mk(3, 5))
		},
		"mr-default": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 40, mk(3, 4))
		},
		"mr-no-meanprop": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			opt := mk(3, 3)
			opt.MeanPropagation = false
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 40, opt)
		},
		"mr-unoptimized": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.MinimizeIntermediate = false
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 30, opt)
		},
		"mr-naive-combiner": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.StatefulCombiner = false
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 30, opt)
		},
		"mr-frobenius2": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.EfficientFrobenius = false
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 30, opt)
		},
		"mr-nonassoc-ss3": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.AssociativeSS3 = false
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 30, opt)
		},
		"mr-smartguess": func() (*Result, error) {
			y := lowRankSparse(300, 40, 3, 11)
			opt := mk(3, 3)
			opt.SmartGuess = true
			opt.SmartGuessRows = 30
			return FitMapReduce(testEngineMR(), dataset.Rows(y), 40, opt)
		},
		"mr-faults": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			eng := testEngineMR()
			eng.Faults = &cluster.FaultPlan{Seed: 7, TaskFailureRate: 0.2}
			eng.MaxAttempts = 12
			return FitMapReduce(eng, dataset.Rows(y), 40, mk(3, 4))
		},
		"spark-default": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			return FitSpark(testCtxSpark(), dataset.Rows(y), 40, mk(3, 4))
		},
		"spark-no-meanprop": func() (*Result, error) {
			y := lowRankSparse(150, 40, 3, 11)
			opt := mk(3, 3)
			opt.MeanPropagation = false
			return FitSpark(testCtxSpark(), dataset.Rows(y), 40, opt)
		},
		"spark-unoptimized": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.MinimizeIntermediate = false
			return FitSpark(testCtxSpark(), dataset.Rows(y), 30, opt)
		},
		"spark-frobenius2": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.EfficientFrobenius = false
			return FitSpark(testCtxSpark(), dataset.Rows(y), 30, opt)
		},
		"spark-nonassoc-ss3": func() (*Result, error) {
			y := lowRankSparse(120, 30, 3, 7)
			opt := mk(3, 3)
			opt.AssociativeSS3 = false
			return FitSpark(testCtxSpark(), dataset.Rows(y), 30, opt)
		},
	}
}

// goldenHashes pins the pre-refactor fingerprints, captured by running the
// exact same fits on the tree before any scratch-reuse change. If a case is
// missing here the test prints the observed hash so it can be pinned.
var goldenHashes = map[string]string{
	"local":              "1030590f2d0d73a4",
	"local-smartguess":   "61f839be9a342c6b",
	"stream":             "69153874556653b5",
	"mr-default":         "52bf97f732796732",
	"mr-no-meanprop":     "05e0cd1d9783c550",
	"mr-unoptimized":     "eb0eb40f748eadf0",
	"mr-naive-combiner":  "5ba72049c980d66a",
	"mr-frobenius2":      "1631be67d97869d5",
	"mr-nonassoc-ss3":    "858e86f51550e5a5",
	"mr-smartguess":      "64411d5a5a4f485d",
	"mr-faults":          "10677244a786c6a9",
	"spark-default":      "80e65a0bcf6a3747",
	"spark-no-meanprop":  "bddb40d4a17ebaf2",
	"spark-unoptimized":  "79c498fb6ae3db81",
	"spark-frobenius2":   "d1cf0f8ce63d5f8a",
	"spark-nonassoc-ss3": "5706344463f8ad7d",
}

func TestGoldenFitsBitIdentical(t *testing.T) {
	for name, fit := range goldenFits() {
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
