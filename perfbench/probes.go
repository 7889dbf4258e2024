package main

import (
	"runtime"
	"time"

	"spca"
	"spca/internal/parallel"
)

// probe times calls of fn in batches and returns the median over batches of
// the mean call time in microseconds: batching amortises the clock reads,
// the median drops batches a host stall landed in.
func probe(s sizes, fn func(i int)) float64 {
	batches := make([]float64, 0, s.probeBatches)
	for b := 0; b < s.probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < s.probeCalls; i++ {
			fn(i)
		}
		batches = append(batches, float64(time.Since(t0))/float64(time.Microsecond)/float64(s.probeCalls))
	}
	return median(batches)
}

// mallocsPerCall counts heap allocations per call of fn.
func mallocsPerCall(calls int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// dispatchN is large enough that ForRunner splits it across every worker.
const dispatchN = 4096

// nopRunner is a trivial parallel.Runner: a chunk only records its bound.
type nopRunner struct{ sink []int }

func (r *nopRunner) Run(lo, hi int) { r.sink[lo] = hi }

// parallelProbe measures one parallel.ForRunner dispatch with a trivial body:
// the per-call cost of fanning out to the workers and joining them. It
// returns microseconds and heap allocations per call.
func parallelProbe(s sizes) (us, allocs float64) {
	r := &nopRunner{sink: make([]int, dispatchN)}
	call := func(int) { parallel.ForRunner(dispatchN, 1, r) }
	return probe(s, call), mallocsPerCall(s.probeBatches*s.probeCalls, call)
}

// transformProbe measures Model.TransformDenseInto without the network, over
// the serve workload's request mix (dst[i] receives the image of src[i]). It
// returns microseconds per call.
func transformProbe(s sizes, m *spca.Model, src, dst []*spca.Dense) float64 {
	return probe(s, func(i int) {
		k := i % len(src)
		if _, err := m.TransformDenseInto(dst[k], src[k]); err != nil {
			panic(err) // shapes were validated when the requests were built
		}
	})
}
