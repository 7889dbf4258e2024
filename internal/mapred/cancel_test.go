package mapred

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"spca/internal/cluster"
)

// interruptedEngine returns a test engine whose cluster polls ctx.
func interruptedEngine(ctx context.Context) *Engine {
	e := testEngine()
	e.Cluster.SetInterrupt(cluster.NewInterrupt(ctx, 0))
	return e
}

// waitGoroutines polls until the goroutine count drops back to the baseline
// (workers parked, nothing leaked) or the deadline passes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestRunCanceledMidMap cancels the context from inside a mapper. Run must
// finish the map phase (its charge stays on the books), then unwind at the
// post-map boundary with an error matching both the cluster sentinel and the
// stdlib's, leaking no goroutines.
func TestRunCanceledMidMap(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := interruptedEngine(ctx)
	var once sync.Once
	job := wordCountJob()
	job.NewMapper = func(int) Mapper[string, string, int64] {
		return MapperFunc[string, string, int64](func(line string, out Emitter[string, int64]) {
			once.Do(cancel)
			out.Emit(line, 1)
		})
	}
	_, err := Run(e, job, []string{"a", "b", "c", "d"})
	if !errors.Is(err, cluster.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	m := e.Cluster.Metrics()
	if m.Phases == 0 || m.SimSeconds <= 0 {
		t.Fatalf("map phase not charged before unwind: %+v", m)
	}
	waitGoroutines(t, base)
}

// TestRunDeadlineMidMap lets a context deadline expire while mappers are
// running; the boundary poll reports the deadline sentinel, not cancel.
func TestRunDeadlineMidMap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	e := interruptedEngine(ctx)
	job := wordCountJob()
	job.NewMapper = func(int) Mapper[string, string, int64] {
		return MapperFunc[string, string, int64](func(line string, out Emitter[string, int64]) {
			time.Sleep(30 * time.Millisecond) // guarantees the deadline passes mid-phase
			out.Emit(line, 1)
		})
	}
	_, err := Run(e, job, []string{"a", "b"})
	if !errors.Is(err, cluster.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded wrapping context.DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("deadline expiry misreported as cancel: %v", err)
	}
}

// TestRunEntryPollPreservesJobSeq pins the resume invariant: a job refused at
// the entry poll must not advance the engine's fault cursor, so a later
// resumed incarnation replays the exact same fault draws.
func TestRunEntryPollPreservesJobSeq(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the job starts
	e := interruptedEngine(ctx)
	seq := e.Epoch()
	_, err := Run(e, wordCountJob(), []string{"a b"})
	if !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if got := e.Epoch(); got != seq {
		t.Fatalf("entry poll advanced the fault cursor: jobSeq %d -> %d", seq, got)
	}
	m := e.Cluster.Metrics()
	if m.Phases != 0 || m.SimSeconds != 0 {
		t.Fatalf("refused job charged phases: %+v", m)
	}
}

// TestRunDenseCanceledMidMap is TestRunCanceledMidMap on a DenseSpec job,
// whose shuffle goes through the slab store.
func TestRunDenseCanceledMidMap(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := interruptedEngine(ctx)
	job := denseScalarJob(4)
	inner := job.NewMapper
	var once sync.Once
	job.NewMapper = func(task int) Mapper[int, int, float64] {
		m := inner(task)
		return MapperFunc[int, int, float64](func(rec int, out Emitter[int, float64]) {
			once.Do(cancel)
			m.Map(rec, out)
		})
	}
	_, err := Run(e, job, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if !errors.Is(err, cluster.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if m := e.Cluster.Metrics(); m.Phases == 0 {
		t.Fatalf("dense map phase not charged before unwind: %+v", m)
	}
	waitGoroutines(t, base)
}

// TestRunDenseEntryPollPreservesJobSeq is the fault-cursor invariant for a
// DenseSpec job.
func TestRunDenseEntryPollPreservesJobSeq(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := interruptedEngine(ctx)
	seq := e.Epoch()
	_, err := Run(e, denseScalarJob(4), []int{1, 2, 3})
	if !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if got := e.Epoch(); got != seq {
		t.Fatalf("entry poll advanced the fault cursor: jobSeq %d -> %d", seq, got)
	}
}
