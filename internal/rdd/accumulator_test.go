package rdd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// foldLog is an accumulator value whose fold shows its order: a float sum of
// values of mixed magnitude, whose bits depend on the order, and the tasks
// in the order they were folded.
type foldLog struct {
	sum   float64
	tasks []int
}

func foldLogs(into, from *foldLog) *foldLog {
	into.sum += from.sum
	into.tasks = append(into.tasks, from.tasks...)
	return into
}

func foldLogSize(l *foldLog) int64 { return 8 + 8*int64(len(l.tasks)) }

// mergeAll publishes task t's value (a fresh foldLog of vals[t]) for every
// task in order, split round-robin across workers goroutines that start
// together, and returns the accumulator's value and its */acc phase.
func mergeAll(t *testing.T, vals []float64, order []int, workers int) (*foldLog, string, int64, int64) {
	t.Helper()
	ctx := newTestContext()
	acc := NewAccumulator(ctx, "log", &foldLog{}, foldLogs, foldLogSize)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := w; i < len(order); i += workers {
				task := order[i]
				acc.Merge(task, &foldLog{sum: vals[task], tasks: []int{task}})
			}
		}()
	}
	close(start)
	wg.Wait()
	v := acc.Value()
	log := ctx.Cluster().PhaseLog()
	last := log[len(log)-1]
	return v, last.Name, last.ShuffleBytes, last.MaterializedBytes
}

// TestAccumulatorFoldsInTaskOrder: whatever order tasks merge in, and from
// however many goroutines, the value is the ascending-order fold bit for
// bit and the */acc phase charges the same bytes. Tasks that never merge
// only leave a gap.
func TestAccumulatorFoldsInTaskOrder(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(32)-16))
	}
	reverse := make([]int, n)
	for i := range reverse {
		reverse[i] = n - 1 - i
	}
	scrambled := rng.Perm(n)
	gapped := make([]int, 0, n) // tasks 0 and 17 never merge
	for _, task := range scrambled {
		if task != 0 && task != 17 {
			gapped = append(gapped, task)
		}
	}
	for _, c := range []struct {
		name    string
		order   []int
		workers int
	}{
		{"reverse", reverse, 1},
		{"scrambled", scrambled, 1},
		{"scrambled, 4 goroutines", scrambled, 4},
		{"reverse, 8 goroutines", reverse, 8},
		{"gapped, 4 goroutines", gapped, 4},
	} {
		want := slices.Clone(c.order)
		slices.Sort(want)
		ref, refName, refShuffle, refMat := mergeAll(t, vals, want, 1)
		got, name, shuffle, mat := mergeAll(t, vals, c.order, c.workers)
		if math.Float64bits(got.sum) != math.Float64bits(ref.sum) {
			t.Errorf("%s: sum %v, ascending fold %v", c.name, got.sum, ref.sum)
		}
		for i := range ref.tasks {
			if i >= len(got.tasks) || got.tasks[i] != ref.tasks[i] {
				t.Fatalf("%s: folded tasks %v, want %v", c.name, got.tasks, ref.tasks)
			}
		}
		if name != refName || shuffle != refShuffle || mat != refMat {
			t.Errorf("%s: phase %s %d/%d bytes, ascending fold %s %d/%d", c.name, name, shuffle, mat, refName, refShuffle, refMat)
		}
	}
}

// TestAccumulatorSecondMergePanics: a task merges at most once per action,
// whether its first value is already folded or still waiting.
func TestAccumulatorSecondMergePanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		first []int
		again int
	}{
		{"folded", []int{0, 1}, 0},
		{"waiting", []int{2, 3}, 3},
	} {
		ctx := newTestContext()
		acc := NewAccumulator(ctx, "sum", 0.0,
			func(a, b float64) float64 { return a + b },
			func(float64) int64 { return 8 })
		for _, task := range c.first {
			acc.Merge(task, 1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a second Merge for task %d did not panic", c.name, c.again)
				}
			}()
			acc.Merge(c.again, 1)
		}()
	}
}
