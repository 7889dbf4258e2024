package parallel

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4) // force chunked execution even on one core
	f := func(n uint16, grain uint8) bool {
		size := int(n % 5000)
		seen := make([]int32, size)
		var mu sync.Mutex
		For(size, int(grain), func(lo, hi int) {
			if lo < 0 || hi > size || lo >= hi {
				t.Errorf("bad chunk [%d,%d) of %d", lo, hi, size)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("index %d visited %d times", i, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For called fn for empty range")
	}
}

func TestSequentialKnobRunsInline(t *testing.T) {
	SetSequential(true)
	defer SetSequential(false)
	SetWorkers(8)
	defer SetWorkers(0)
	calls := 0
	For(10000, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10000 {
			t.Fatalf("sequential mode chunked: [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential mode made %d calls", calls)
	}
	if !Sequential() {
		t.Fatal("Sequential() should report true")
	}
}

func TestGrainBoundsChunkSize(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	For(1000, 300, func(lo, hi int) {
		if hi-lo < 300 && hi != 1000 {
			t.Fatalf("chunk [%d,%d) smaller than grain", lo, hi)
		}
	})
}

func TestWorkersOverride(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d with override cleared", Workers())
	}
}

func TestForWorkerMatchesForAndBoundsWorkerIndex(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		n := 1000
		got := make([]int, n)
		ForWorker(n, 10, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of [0,%d)", w, workers)
			}
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], i*i)
			}
		}
	}
}

type nopRunner struct{ sink []int }

func (r *nopRunner) Run(lo, hi int) { r.sink[lo] = hi }

// TestForRunnerDispatchAllocs gates the multi-core path of the chunk-claim
// loop: a chunked dispatch allocates the run's shared state once, plus one
// closure per goroutine beyond the caller's, so w workers cost at most w
// allocations (the loop before it made 4 at two workers and 6 at four).
func TestForRunnerDispatchAllocs(t *testing.T) {
	defer SetWorkers(0)
	r := &nopRunner{sink: make([]int, 4096)}
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		want := float64(workers)
		if workers == 1 {
			want = 0 // inline
		}
		if got := testing.AllocsPerRun(100, func() { ForRunner(len(r.sink), 1, r) }); got > want {
			t.Errorf("workers=%d: ForRunner dispatch made %v allocations, want at most %v", workers, got, want)
		}
	}
}
