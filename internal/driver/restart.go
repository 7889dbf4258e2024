package driver

import (
	"errors"
	"fmt"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/trace"
)

// maxRestarts bounds Restart. A deterministic plan crashes at most once per
// scheduled incarnation, so a plan a fit can survive never reaches it; it
// only guards against a runaway loop.
const maxRestarts = 64

// Restart runs fit once per driver incarnation, restarting after injected
// driver crashes. With resume set (and checkpointing armed) the first
// incarnation continues an earlier aborted run from the newest valid
// snapshot; an empty directory falls back to a fresh run. After a crash the
// next incarnation resumes from the newest snapshot, or from scratch when the
// crash predates the first write, and the simulated time the crash wasted is
// charged as RecoveredSeconds. Without checkpointing a driver crash is fatal,
// as it is for a stock Hadoop/Spark driver. An interrupt leaves as a
// *cluster.AbortError (see NormalizeInterrupt).
func Restart[R any](opt Options, resume bool, fit func(Options) (R, error)) (R, error) {
	var zero R
	if resume && opt.Checkpoint.Enabled() {
		snap, err := opt.latest()
		if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return zero, fmt.Errorf("driver: resuming from checkpoint: %w", err)
		}
		opt.Resume = snap
	}
	for attempt := 0; ; attempt++ {
		opt.Incarnation = attempt
		// Each incarnation's spans land on their own lane, so crashed and
		// resumed work stay distinguishable in exported traces.
		opt.Tracer.SetLane(attempt)
		res, err := fit(opt)
		err = NormalizeInterrupt(err)
		var crash *cluster.DriverCrashError
		if !errors.As(err, &crash) || !opt.Checkpoint.Enabled() {
			return res, err
		}
		if attempt >= maxRestarts {
			return zero, fmt.Errorf("driver: crashed %d times, giving up: %w", attempt+1, err)
		}
		snap, err := opt.latest()
		switch {
		case err == nil:
			opt.RecoveredSeconds = max(crash.SimSeconds-snap.Metrics.SimSeconds, 0)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Crash before the first snapshot: the whole incarnation is lost.
			opt.RecoveredSeconds = crash.SimSeconds
		default:
			return zero, fmt.Errorf("driver: resuming after driver crash: %w", err)
		}
		opt.Resume = snap
	}
}

// latest loads the newest valid snapshot in the checkpoint directory,
// tracing and counting every corrupt generation the scan quarantined.
func (o *Options) latest() (*checkpoint.Snapshot, error) {
	snap, report, err := checkpoint.LatestReport(o.Checkpoint.Dir)
	for _, q := range report.Quarantined {
		var iter int64
		fmt.Sscanf(q.Name, "ckpt-%d.spck", &iter)
		o.Tracer.Event("snapshot-quarantined", trace.I("iter", iter), trace.I("bytes", q.Bytes))
	}
	o.quarantined += int64(len(report.Quarantined))
	return snap, err
}

// NormalizeInterrupt gives every interrupt observed by a fit the same shape.
// Interrupts caught inside Loop already arrive as a resumable *AbortError;
// one caught by a setup-phase job or action (mean, Frobenius norm, data
// distribution) unwinds as a plainly wrapped sentinel, so it is folded into
// an *AbortError with zero completed iterations here. Other errors pass
// through untouched.
func NormalizeInterrupt(err error) error {
	if err == nil || !cluster.IsInterrupt(err) {
		return err
	}
	var ab *cluster.AbortError
	if errors.As(err, &ab) {
		return err
	}
	return &cluster.AbortError{Iter: 0, Cause: err}
}
