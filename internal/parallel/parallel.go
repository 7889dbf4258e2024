// Package parallel provides the shared goroutine pool used by the dense and
// sparse matrix kernels and the driver-side steps of the PCA algorithms.
//
// The design constraint is bit-reproducibility: every caller partitions its
// index space into contiguous chunks whose results are independent of chunk
// boundaries and scheduling order (each chunk writes only state it owns, and
// per-element floating-point reduction order never crosses a chunk
// boundary). Under that contract a run with the pool enabled is bit-identical
// to a sequential run, which keeps every simulated experiment reproduction
// stable while the real wall-clock drops on multi-core machines.
//
// Real-time parallelism here is orthogonal to the simulated cluster: the
// cost model charges exactly the same operations either way.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker oversubscribes the chunk count for load balancing: slow
// chunks (e.g. the triangular loops of tridiagonalization) do not leave the
// other workers idle.
const chunksPerWorker = 4

var (
	sequential      atomic.Bool
	workersOverride atomic.Int32
)

// SetSequential forces For to run its body inline on the calling goroutine.
// Tests use it to compare parallel runs against a sequential reference; the
// contract is that results are bit-identical either way.
func SetSequential(on bool) { sequential.Store(on) }

// Sequential reports whether the pool is forced sequential.
func Sequential() bool { return sequential.Load() }

// SetWorkers overrides the worker count (0 restores the GOMAXPROCS default).
// Tests use it to exercise chunked execution even on single-core machines.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workersOverride.Store(int32(n))
}

// Workers returns the degree of parallelism For uses.
func Workers() int {
	if n := workersOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Runner is the interface form of For's chunk body. A closure literal passed
// to For escapes to the heap on every call — escape analysis sees it flow
// into the worker goroutines even when execution stays inline — which costs
// the hot kernels one allocation per invocation. Converting a pointer to an
// interface allocates nothing, so kernels that must be allocation-free in
// steady state implement Run on a pooled struct (carrying the would-be
// captures as fields) and dispatch through ForRunner instead.
type Runner interface {
	Run(lo, hi int)
}

// ForRunner is For with the chunk body passed as a Runner instead of a
// closure. Chunking, scheduling, and the bit-reproducibility contract are
// identical to For; the only difference is that the inline fast path performs
// no allocation at the call site.
func ForRunner(n, grain int, r Runner) { forChunks(n, grain, runnerBody{r}) }

// For splits [0, n) into contiguous chunks of at least grain indices and runs
// fn(lo, hi) once per chunk, possibly concurrently. fn must only write state
// owned by its chunk, and the value it computes for an index must not depend
// on the chunk boundaries — then the result is bit-identical to fn(0, n).
//
// Small inputs (n <= grain), a single available worker, or the sequential
// knob all collapse to one inline fn(0, n) call with no goroutine overhead.
// Pick grain so a chunk amortizes scheduling: tens of microseconds of work.
// Note the closure itself still escapes (see Runner); allocation-sensitive
// callers use ForRunner.
func For(n, grain int, fn func(lo, hi int)) { ForRunner(n, grain, funcRunner(fn)) }

// funcRunner adapts For's closure to a Runner. A func value is one pointer,
// so the conversion allocates nothing.
type funcRunner func(lo, hi int)

func (f funcRunner) Run(lo, hi int) { f(lo, hi) }

// ForWorker is For with the executing worker's index (0 <= w < Workers())
// passed to fn, so fn can index per-worker scratch without synchronization.
// The same bit-reproducibility contract as For applies; in particular the
// values fn computes must not depend on which worker ran the chunk, which
// holds whenever per-worker scratch is fully initialized before it is read.
func ForWorker(n, grain int, fn func(worker, lo, hi int)) { forChunks(n, grain, workerBody(fn)) }

// body is a chunk body as the claim loop calls it: run(w, lo, hi) on worker
// w. Its two adapters below are a func value or hold one interface, so
// passing them by value allocates nothing on the inline path.
type body interface{ run(w, lo, hi int) }

type runnerBody struct{ r Runner }

func (b runnerBody) run(_, lo, hi int) { b.r.Run(lo, hi) }

type workerBody func(w, lo, hi int)

func (f workerBody) run(w, lo, hi int) { f(w, lo, hi) }

// forChunks is the one chunk-claim loop behind For, ForRunner and ForWorker.
// The chunk size depends only on n, grain and Workers(), so a run's chunk
// boundaries never depend on scheduling.
func forChunks[B body](n, grain int, b B) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers()
	if sequential.Load() || workers == 1 || n <= grain {
		b.run(0, 0, n)
		return
	}
	chunk := max((n+workers*chunksPerWorker-1)/(workers*chunksPerWorker), grain)
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		b.run(0, 0, n)
		return
	}
	c := &claims[B]{b: b, n: n, chunk: chunk, chunks: chunks}
	workers = min(workers, chunks)
	c.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer c.wg.Done()
			c.loop(w)
		}()
	}
	c.loop(0)
	c.wg.Wait()
}

// claims is one parallel forChunks run: its workers claim chunks in order
// from next until none remain or the abort flag trips.
type claims[B body] struct {
	b                B
	n, chunk, chunks int
	next             atomic.Int64
	wg               sync.WaitGroup
}

func (c *claims[B]) loop(w int) {
	for !aborted() {
		i := int(c.next.Add(1)) - 1
		if i >= c.chunks {
			return
		}
		lo := i * c.chunk
		c.b.run(w, lo, min(lo+c.chunk, c.n))
	}
}

// TaskWorkers is how many goroutines the engines run their tasks on: the
// width of the kernel pool (Workers), one under SetSequential. rdd runs an
// action's partitions and mapred a job's map and reduce tasks on it; the
// simulated cluster's cores only set the charges.
func TaskWorkers() int {
	if Sequential() {
		return 1
	}
	return Workers()
}

// Tasks runs fn(t) for every task t in [0, n) on at most workers
// goroutines, and returns when all have run. Each worker claims the next
// index from a shared counter, so tasks start in ascending order, one at a
// time: unlike For's chunks, a task that finishes late holds back only
// itself. At one worker the tasks run inline, in order. The engines run
// their map tasks and partitions on it; the abort flag is not consulted,
// since every task's result is kept.
func Tasks(n, workers int, fn func(task int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for t := 0; t < n; t++ {
			fn(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < n; t = int(next.Add(1)) - 1 {
				fn(t)
			}
		}()
	}
	wg.Wait()
}
