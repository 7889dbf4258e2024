package driver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// fakeStep is a 1x1 "model" that records the iterations it ran. It can stop
// after a number of iterations, fail one iteration with an error, and call
// a hook after each completed iteration.
type fakeStep struct {
	ran     []int
	stopAt  int   // Done once this many iterations completed (0: never)
	failAt  int   // iteration that returns failErr
	failErr error // returned by iteration failAt
	after   func(iter int)
}

func (s *fakeStep) Done() bool { return s.stopAt > 0 && len(s.ran) >= s.stopAt }

func (s *fakeStep) Step(iter int) error {
	if iter == s.failAt {
		return s.failErr
	}
	s.ran = append(s.ran, iter)
	if s.after != nil {
		s.after(iter)
	}
	return nil
}

func (s *fakeStep) SpanEnd(error) []trace.Attr { return nil }

func (s *fakeStep) Snapshot(iter int) *checkpoint.Snapshot { return fakeSnapshot(iter) }

func fakeSnapshot(iter int) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{Iter: iter, Fit: "fake", N: 1, Dims: 1, D: 1, Seed: 1, Mean: []float64{0}, C: matrix.NewDense(1, 1)}
}

// canceledAt returns options whose interrupt fires once iteration n has run,
// together with the hook that fires it and the collector the run traces to.
func canceledAt(t *testing.T, n int) (Options, func(int), *trace.Collector) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	col := trace.NewCollector()
	opt := Options{Interrupt: cluster.NewInterrupt(ctx, 0), Tracer: trace.New(col)}
	return opt, func(iter int) {
		if iter == n {
			cancel()
		}
	}, col
}

// TestFinalFlushFailureStillAborts makes every retry of the final flush fail
// (the checkpoint directory is a regular file): the abort must still come
// back typed, report Checkpointed=false, and leave a final-checkpoint-failed
// event in the trace.
func TestFinalFlushFailureStillAborts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opt, cancelAfter, col := canceledAt(t, 2)
	opt.Checkpoint = CheckpointSpec{Interval: 3, Dir: dir}
	err := New("fake", opt, nil, nil).Loop(&fakeStep{after: cancelAfter}, 5, "iteration", "iter")

	var ab *cluster.AbortError
	if !errors.As(err, &ab) || !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("want *AbortError wrapping ErrCanceled, got %v", err)
	}
	if ab.Iter != 2 || ab.Checkpointed {
		t.Errorf("abort = %+v, want iter 2 and Checkpointed=false", ab)
	}
	tr := col.Trace()
	if got := tr.FindEvents("final-checkpoint-failed"); len(got) != 1 || got[0].Attrs[0].Int != 2 {
		t.Errorf("final-checkpoint-failed events = %+v, want one at iter 2", got)
	}
	if got := tr.FindEvents("final-checkpoint"); len(got) != 0 {
		t.Errorf("failed flush traced %d final-checkpoint events", len(got))
	}
}

// TestMidStepInterrupt has an engine phase observe the interrupt inside
// iteration failAt. The iteration is abandoned without a fresh snapshot, so
// Checkpointed says whether an earlier one exists: a periodic snapshot at or
// before the last completed iteration, or the snapshot the run resumed from.
func TestMidStepInterrupt(t *testing.T) {
	cases := []struct {
		interval, failAt, resumeIter int
		want                         bool
	}{
		{interval: 2, failAt: 2, want: false},               // nothing written yet
		{interval: 2, failAt: 3, want: true},                // the periodic write at 2
		{interval: 2, failAt: 4, want: true},                // 3 >= Interval: the write at 2
		{interval: 3, failAt: 3, want: false},               // 2 < Interval
		{interval: 3, failAt: 3, resumeIter: 1, want: true}, // resumed from iteration 1
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("interval=%d/fail=%d/resume=%d", c.interval, c.failAt, c.resumeIter), func(t *testing.T) {
			dir := t.TempDir()
			col := trace.NewCollector()
			opt := Options{Checkpoint: CheckpointSpec{Interval: c.interval, Dir: dir}, Tracer: trace.New(col)}
			if c.resumeIter > 0 {
				opt.Resume = fakeSnapshot(c.resumeIter)
			}
			run := New("fake", opt, nil, nil)
			if err := run.Resume(1, 1, 1, 1); err != nil {
				t.Fatal(err)
			}
			mid := fmt.Errorf("engine phase: %w", cluster.ErrCanceled)
			err := run.Loop(&fakeStep{failAt: c.failAt, failErr: mid}, 5, "iteration", "iter")

			var ab *cluster.AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("want *AbortError, got %v", err)
			}
			if ab.Iter != c.failAt-1 || ab.Checkpointed != c.want {
				t.Errorf("abort = %+v, want iter %d Checkpointed=%v", ab, c.failAt-1, c.want)
			}
			if n := len(col.Trace().FindEvents("final-checkpoint")); n != 0 {
				t.Errorf("mid-iteration abort flushed %d final snapshots", n)
			}
			last := c.failAt - 1
			_, err = os.Stat(filepath.Join(dir, checkpoint.FileName(last)))
			if exists, periodic := err == nil, last%c.interval == 0; exists != periodic {
				t.Errorf("snapshot at iteration %d exists = %v, want %v (periodic writes only)", last, exists, periodic)
			}
		})
	}
}

// TestCancelOnStoppingIteration: the stopping rule is checked at the top of
// the next iteration, after the boundary poll, so a cancel that lands on the
// iteration meeting it aborts like a cancel after MaxIter — with that
// iteration checkpointed for the resume.
func TestCancelOnStoppingIteration(t *testing.T) {
	opt, cancelAfter, _ := canceledAt(t, 2)
	opt.Checkpoint = CheckpointSpec{Interval: 1, Dir: t.TempDir()}
	step := &fakeStep{stopAt: 2, after: cancelAfter}
	err := New("fake", opt, nil, nil).Loop(step, 5, "round", "round")
	var ab *cluster.AbortError
	if !errors.As(err, &ab) || ab.Iter != 2 || !ab.Checkpointed {
		t.Fatalf("want AbortError{Iter: 2, Checkpointed: true}, got %v", err)
	}

	// Resumed from that snapshot, the run is already done.
	opt = Options{Checkpoint: opt.Checkpoint, Resume: fakeSnapshot(2)}
	step = &fakeStep{stopAt: 2, ran: []int{1, 2}}
	if err := New("fake", opt, nil, nil).Loop(step, 5, "round", "round"); err != nil || len(step.ran) != 2 {
		t.Fatalf("resumed at the stopping iteration: err %v, ran %v", err, step.ran)
	}
}
