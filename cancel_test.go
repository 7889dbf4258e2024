package spca

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spca/internal/checkpoint"
)

// cancelAtIter is an Observer that cancels a context the moment iteration
// (or sketch round) n completes — landing the cancellation exactly on the
// guarded loops' deterministic boundary poll.
type cancelAtIter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtIter) SpanStart(Span)   {}
func (c *cancelAtIter) SpanEnd(Span)     {}
func (c *cancelAtIter) Event(TraceEvent) {}
func (c *cancelAtIter) IterationDone(it TraceIteration) {
	if it.Iter == c.n {
		c.cancel()
	}
}

// TestChaosCancelEveryBoundary is the cancellation half of the durability
// contract: for the EM and sketch engines, cancel the run at EVERY
// iteration boundary (including before the first), assert the typed resumable
// abort, then Fit again with Resume and require the finished model and
// simulated clock to be bit-identical to a never-interrupted run.
func TestChaosCancelEveryBoundary(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 400, Cols: 60, Seed: 9})
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, RSVDSpark, MahoutPCA} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			base := Config{Algorithm: alg, Components: 4, MaxIter: 4, Tol: -1,
				Checkpoint: CheckpointSpec{Interval: 2, Dir: t.TempDir()}}
			clean, err := Fit(y, base)
			if err != nil {
				t.Fatal(err)
			}
			cleanFP := modelFingerprint(clean)

			for b := 0; b <= base.MaxIter; b++ {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				cfg := base
				cfg.Checkpoint.Dir = dir
				cfg.Context = ctx
				cfg.Observer = &cancelAtIter{n: b, cancel: cancel}
				if b == 0 {
					cancel() // canceled before any iteration runs
				}
				_, err := Fit(y, cfg)
				cancel()
				var ab *AbortError
				if !errors.As(err, &ab) {
					t.Fatalf("boundary %d: want *AbortError, got %v", b, err)
				}
				if ab.Iter != b {
					t.Errorf("boundary %d: AbortError.Iter = %d", b, ab.Iter)
				}
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Errorf("boundary %d: error matches neither sentinel family: %v", b, err)
				}
				if want := b > 0; ab.Checkpointed != want {
					t.Errorf("boundary %d: Checkpointed = %v, want %v", b, ab.Checkpointed, want)
				}

				// Resume into the same checkpoint directory. At boundary 0
				// nothing was written, so this is a fresh full run — either
				// way the final model must be bit-identical to the clean fit.
				resumed := base
				resumed.Checkpoint.Dir = dir
				resumed.Resume = true
				got, err := Fit(y, resumed)
				if err != nil {
					t.Fatalf("boundary %d: resume: %v", b, err)
				}
				if fp := modelFingerprint(got); fp != cleanFP {
					t.Errorf("boundary %d: resumed fingerprint %s != clean %s", b, fp, cleanFP)
				}
				if got.Metrics.SimSeconds != clean.Metrics.SimSeconds {
					t.Errorf("boundary %d: resumed SimSeconds %v != clean %v",
						b, got.Metrics.SimSeconds, clean.Metrics.SimSeconds)
				}
			}
		})
	}
}

// TestChaosCancelWithTaskFaults layers boundary cancellation on top of the
// full task-fault chaos plan: the resumed run must replay the exact same
// fault draws and land on the clean run's model and clock.
func TestChaosCancelWithTaskFaults(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 400, Cols: 60, Seed: 9})
	seed := chaosSeed(t)
	base := Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 4, Tol: -1,
		Faults:     chaosPlan(seed),
		Checkpoint: CheckpointSpec{Interval: 2, Dir: t.TempDir()}}
	clean, err := Fit(y, base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.Checkpoint.Dir = dir
	cfg.Faults = chaosPlan(seed)
	cfg.Context = ctx
	cfg.Observer = &cancelAtIter{n: 3, cancel: cancel}
	if _, err := Fit(y, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	resumed := base
	resumed.Checkpoint.Dir = dir
	resumed.Faults = chaosPlan(seed)
	resumed.Resume = true
	got, err := Fit(y, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if modelFingerprint(got) != modelFingerprint(clean) {
		t.Error("cancel+resume under task faults: model not bit-identical")
	}
	if got.Metrics.FailedAttempts != clean.Metrics.FailedAttempts {
		t.Errorf("fault draws diverged across cancel+resume: %d failed attempts vs %d",
			got.Metrics.FailedAttempts, clean.Metrics.FailedAttempts)
	}
}

// TestFitDeadlineExceeded pins the deadline flavor end to end: an expired
// context surfaces as a typed, resumable abort matching both the facade
// sentinel and the stdlib's, before any simulated work is charged.
func TestFitDeadlineExceeded(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 200, Cols: 40, Seed: 9})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cfg := Config{Algorithm: SPCAMapReduce, Components: 3, MaxIter: 3, Context: ctx}
	_, err := Fit(y, cfg)
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded wrapping context.DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline misreported as cancel: %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ab.Iter != 0 || ab.Checkpointed {
		t.Fatalf("pre-run deadline abort malformed: %+v", ab)
	}
}

// stallObserver sleeps past the stall budget once, at iteration n's boundary,
// simulating a driver whose process stops advancing.
type stallObserver struct {
	n     int
	sleep time.Duration
}

func (s *stallObserver) SpanStart(Span)   {}
func (s *stallObserver) SpanEnd(Span)     {}
func (s *stallObserver) Event(TraceEvent) {}
func (s *stallObserver) IterationDone(it TraceIteration) {
	if it.Iter == s.n {
		time.Sleep(s.sleep)
	}
}

// TestFitStallWatchdog arms Config.StallTimeout and wedges the run at an
// iteration boundary; the watchdog must abort with ErrStalled and attach the
// phase-summary diagnostic dump.
func TestFitStallWatchdog(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 200, Cols: 40, Seed: 9})
	cfg := Config{Algorithm: SPCAMapReduce, Components: 3, MaxIter: 4, Tol: -1,
		StallTimeout: 300 * time.Millisecond,
		Observer:     &stallObserver{n: 2, sleep: 1500 * time.Millisecond}}
	_, err := Fit(y, cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ab.Iter != 2 {
		t.Errorf("stall observed at iteration %d, want 2", ab.Iter)
	}
	if !strings.Contains(ab.Diagnostic, "phase summary at stall") {
		t.Errorf("stall abort missing phase-summary diagnostic: %q", ab.Diagnostic)
	}
}

// TestAbortWithoutCheckpointNotResumable: cancelling a run with no checkpoint
// config yields the typed abort with Checkpointed=false — the caller learns
// there is nothing on disk to resume from.
func TestAbortWithoutCheckpointNotResumable(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 200, Cols: 40, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Algorithm: SPCAMapReduce, Components: 3, MaxIter: 4, Tol: -1,
		Context: ctx, Observer: &cancelAtIter{n: 2, cancel: cancel}}
	_, err := Fit(y, cfg)
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ab.Iter != 2 || ab.Checkpointed {
		t.Fatalf("abort without checkpointing malformed: %+v", ab)
	}
}

// TestResumeRequiresCheckpoint pins the config guard: Resume without a
// checkpoint directory is a configuration error, not a silent fresh run.
func TestResumeRequiresCheckpoint(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 50, Cols: 20, Seed: 9})
	_, err := Fit(y, Config{Algorithm: SPCAMapReduce, Components: 2, MaxIter: 2, Resume: true})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// TestResumeRejectsAnotherFitsSnapshot: a checkpoint directory written by
// one algorithm must not be resumed by another. Each pair below shares the
// data shape, rank, seed and snapshot layout, so only the fit name the
// snapshot carries tells them apart.
func TestResumeRejectsAnotherFitsSnapshot(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 300, Cols: 50, Seed: 9})
	for _, pair := range [][2]Algorithm{
		{RSVDMapReduce, RSVDSpark},
		{SPCAMapReduce, SPCASpark},
		{RSVDMapReduce, MahoutPCA},
	} {
		dir := t.TempDir()
		writer := Config{Algorithm: pair[0], Components: 4, MaxIter: 2, Tol: -1,
			Checkpoint: CheckpointSpec{Interval: 2, Dir: dir}}
		if _, err := Fit(y, writer); err != nil {
			t.Fatal(err)
		}
		reader := writer
		reader.Algorithm = pair[1]
		reader.MaxIter = 4
		reader.Resume = true
		_, err := Fit(y, reader)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) || mm.Field != "fit" {
			t.Errorf("%s resumed from %s's snapshot: err %v, want a fit mismatch", pair[1], pair[0], err)
		}
	}
}

// TestLiveContextPreservesGoldenClock: threading a live, never-canceled
// context (and stall watchdog) through a fit must not change the simulated
// clock or the model by a single bit relative to a context-free fit.
func TestLiveContextPreservesGoldenClock(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 300, Cols: 50, Seed: 9})
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, MahoutPCA} {
		base := Config{Algorithm: alg, Components: 4, MaxIter: 3, Tol: -1}
		plain, err := Fit(y, base)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		withCtx := base
		withCtx.Context = ctx
		withCtx.StallTimeout = time.Hour
		live, err := Fit(y, withCtx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if modelFingerprint(plain) != modelFingerprint(live) {
			t.Errorf("%s: live context perturbed the model", alg)
		}
		if plain.Metrics != live.Metrics {
			t.Errorf("%s: live context perturbed metrics:\n%+v\n%+v", alg, plain.Metrics, live.Metrics)
		}
	}
}
