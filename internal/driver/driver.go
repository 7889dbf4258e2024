// Package driver is the iterative driver shared by the EM fits of
// internal/ppca (sPCA, Algorithms 4/5) and the randomized-sketch fits of
// internal/rsvd and internal/ssvd (Mahout-PCA). An engine family supplies
// one iteration of work behind Step; everything around it is written once
// here:
//
//   - the loop: the stopping check at the top of every iteration, the entry
//     and boundary interrupt polls, the stall watchdog's progress beacon, and
//     the per-iteration trace span;
//   - durability: the resume prelude, the periodic checkpoint (charged to the
//     simulated cluster before its metrics are captured), the injected
//     snapshot corruption, the scheduled driver crash, and the uncharged
//     final flush of an interrupted run;
//   - the incarnation loop (Restart) that resumes a crashed or aborted fit
//     from its newest valid snapshot.
//
// The contract is determinism: a run that crashes, or is canceled at any
// boundary, and then resumes finishes with the model, history, simulated
// clock and span stream of a run that was never interrupted.
package driver

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/trace"
)

// CheckpointSpec configures periodic driver snapshots. The zero value
// disables checkpointing entirely: no files, no simulated charges, and runs
// stay byte-identical to a build without the subsystem.
type CheckpointSpec struct {
	// Interval writes a snapshot after every Interval-th iteration.
	Interval int
	// Dir is the directory snapshot files are written to (created if absent).
	Dir string
	// Keep bounds how many snapshot generations are retained after each
	// write: 0 means checkpoint.DefaultKeep, negative means unlimited.
	// Keeping more than one generation is what lets a resume fall back past
	// a corrupt newest snapshot.
	Keep int
}

// Enabled reports whether snapshots will be written.
func (c CheckpointSpec) Enabled() bool { return c.Interval > 0 && c.Dir != "" }

// Options are the durability, tracing and interruption settings of one
// driver incarnation. ppca.Options and rsvd.Options embed them.
type Options struct {
	// Checkpoint configures periodic durable snapshots; see CheckpointSpec.
	Checkpoint CheckpointSpec
	// Resume, when non-nil, restarts the fit from a snapshot instead of from
	// scratch: the setup jobs are skipped, the snapshot's model, history and
	// metrics are restored, and iteration continues at snap.Iter+1 —
	// producing a final model bit-identical to the uninterrupted run.
	Resume *checkpoint.Snapshot
	// Faults carries the fault plan for driver crashes and snapshot
	// corruption (task-level faults are configured on the engines).
	Faults *cluster.FaultPlan
	// Incarnation is this driver's 0-based crash-schedule index: Restart
	// increments it on every restart so a resumed driver consults the next
	// scheduled crash.
	Incarnation int
	// RecoveredSeconds is the simulated time a previous incarnation wasted on
	// work this run redoes (iterations past the snapshot, or the whole run
	// when restarting from scratch). It is charged to RecoverySeconds at
	// restore time and never touches the simulated clock.
	RecoveredSeconds float64
	// Tracer, when non-nil, receives deterministic spans stamped with the
	// simulated clock. Nil disables tracing with zero overhead.
	Tracer *trace.Tracer
	// Interrupt, when non-nil, is polled at every iteration boundary (and by
	// the engines at phase boundaries via the cluster). On cancel, deadline,
	// or stall the loop stops at the boundary, flushes a final snapshot when
	// checkpointing is armed, and returns a *cluster.AbortError. The poll is
	// allocation-free; nil makes the fit uninterruptible.
	Interrupt *cluster.Interrupt

	// quarantined counts the snapshot generations Restart's resume scans
	// set aside as corrupt; Finish reports them as CorruptPayloads.
	quarantined int64
}

// Cursor is an engine's fault-decision cursor: the MapReduce job sequence or
// the Spark action epoch. Snapshots record it and a resumed driver rewinds
// it, so the remaining jobs draw the task faults an uninterrupted run would.
type Cursor interface {
	Epoch() int64
	SetEpoch(epoch int64)
}

// Step is one engine family's iteration. The driver calls it between its
// interrupt polls and follows it with the periodic checkpoint and the
// scheduled driver crash, all inside the iteration's trace span.
type Step interface {
	// Done reports whether the completed history already meets the family's
	// stopping rule. It is checked before every iteration, so a run resumed
	// from a snapshot taken at its stopping iteration stops at once.
	Done() bool
	// Step runs iteration iter (1-based) and records its history entry.
	Step(iter int) error
	// SpanEnd returns the attributes that close an iteration's span, given
	// the error the iteration ended with (nil on success).
	SpanEnd(err error) []trace.Attr
	// Snapshot captures the state at the boundary after iteration iter. The
	// driver fills in Fit, Metrics and FaultEpoch.
	Snapshot(iter int) *checkpoint.Snapshot
}

// Run is one driver incarnation of an iterative fit.
type Run struct {
	fit    string // the fit's name, stamped on its snapshots
	opt    Options
	cl     *cluster.Cluster // nil for single-machine fits
	cursor Cursor           // nil for single-machine fits
	// local is a single-machine fit's own accounting (restarts and
	// checkpoint bytes); engine fits account on the cluster.
	local cluster.Metrics
}

// New starts a driver incarnation of the fit named fit on cluster cl with
// the engine's fault cursor. Single-machine fits pass nil for both. The name
// is stamped on every snapshot, and Resume accepts only snapshots that carry
// it, so one fit never continues another's run.
func New(fit string, opt Options, cl *cluster.Cluster, cursor Cursor) *Run {
	return &Run{fit: fit, opt: opt, cl: cl, cursor: cursor}
}

// Resume is the resume prelude, run once the setup every incarnation pays
// (the Spark input RDD) is charged. With Options.Resume set it validates the
// snapshot against the fit's name and shape, rewinds the clock to the
// snapshot, charges the restore — the snapshot read, RecoveredSeconds, and
// the setup just redone — to RecoverySeconds, and rewinds the fault cursor.
// Without a snapshot it does nothing; Loop counts a scratch restart instead.
func (r *Run) Resume(n, dims, d int, seed uint64) error {
	snap := r.opt.Resume
	if snap == nil {
		return nil
	}
	if err := snap.Validate(r.fit, n, dims, d, seed); err != nil {
		return err
	}
	if r.cl == nil {
		r.local = snap.Metrics
		r.local.DriverRestarts++
		return nil
	}
	setup := r.cl.Metrics().SimSeconds
	r.cl.RestoreMetrics(snap.Metrics)
	r.cl.ChargeDriverRestore(snap.CostBytes(), r.opt.RecoveredSeconds+setup)
	r.cursor.SetEpoch(snap.FaultEpoch)
	return nil
}

// Loop runs iterations until maxIter or until step is Done. Each iteration
// opens a span named span carrying the iteration number under key. An
// interrupt observed at a boundary, or by an engine phase mid-iteration,
// ends the loop with a resumable *cluster.AbortError.
func (r *Run) Loop(step Step, maxIter int, span, key string) error {
	start := 1
	if snap := r.opt.Resume; snap != nil {
		start = snap.Iter + 1
	} else if r.opt.Incarnation > 0 {
		// Restarted from scratch after a crash with no usable snapshot:
		// count the restart and the previous incarnation's wasted time.
		// Counted here, after the setup jobs the engine redid, so the
		// restore event follows them in the trace.
		if r.cl != nil {
			r.cl.ChargeDriverRestore(0, r.opt.RecoveredSeconds)
		} else {
			r.local.DriverRestarts++
		}
	}
	for iter := start; iter <= maxIter; iter++ {
		if step.Done() {
			break
		}
		// Entry poll: a context canceled before (or between) iterations is
		// observed with iter-1 iterations complete and the state exactly at
		// that boundary.
		if cause := r.opt.Interrupt.Err(); cause != nil {
			return r.abort(step, iter-1, cause, true)
		}
		if err := r.iterate(step, iter, span, key); err != nil {
			if cluster.IsInterrupt(err) {
				// An engine phase caught the interrupt mid-iteration. The
				// iteration is abandoned — its state may be mid-update, so no
				// fresh snapshot is written; a resume redoes it from the last
				// periodic snapshot, deterministically.
				return r.abort(step, iter-1, err, false)
			}
			return err
		}
		// Boundary poll: the iteration (including its checkpoint and observer
		// callbacks) finished — the deterministic abort point. Checked before
		// Progress so a stall that opened during the iteration is observed.
		if cause := r.opt.Interrupt.Err(); cause != nil {
			return r.abort(step, iter, cause, true)
		}
		r.opt.Interrupt.Progress()
	}
	return nil
}

// iterate is one iteration inside its span: the step's work, the periodic
// checkpoint, and the scheduled driver crash. The span brackets all three on
// every exit path.
func (r *Run) iterate(step Step, iter int, span, key string) (err error) {
	if tr := r.opt.Tracer; tr != nil {
		tr.Begin(span, trace.KindIteration, trace.I(key, int64(iter)))
		defer func() { tr.End(step.SpanEnd(err)...) }()
	}
	if err := step.Step(iter); err != nil {
		return err
	}
	if ck := r.opt.Checkpoint; ck.Enabled() && iter%ck.Interval == 0 {
		if err := r.checkpoint(step, iter); err != nil {
			return err
		}
	}
	if r.opt.Faults.DriverCrashAt(iter, r.opt.Incarnation) {
		r.opt.Tracer.Event("driver-crash",
			trace.I("iter", int64(iter)), trace.I("incarnation", int64(r.opt.Incarnation)))
		return &cluster.DriverCrashError{Iter: iter, Incarnation: r.opt.Incarnation, SimSeconds: r.SimSeconds()}
	}
	return nil
}

// SimSeconds reads the simulated clock; single-machine fits have none and
// read zero.
func (r *Run) SimSeconds() float64 {
	if r.cl == nil {
		return 0
	}
	return r.cl.Metrics().SimSeconds
}

// metrics is the accounting a snapshot embeds: the cluster's for engine
// fits, the run's own for single-machine fits.
func (r *Run) metrics() cluster.Metrics {
	if r.cl != nil {
		return r.cl.Metrics()
	}
	return r.local
}

// Finish returns a completed run's metrics and per-phase cost breakdown (nil
// without a cluster). Snapshot generations Restart quarantined count as
// detected corruptions, out of band of the simulated clock like
// DriverRestarts, so the model and SimSeconds stay those of an
// uninterrupted run.
func (r *Run) Finish() (cluster.Metrics, []cluster.PhaseSummary) {
	m := r.metrics()
	m.CorruptPayloads += r.opt.quarantined
	if r.cl == nil {
		return m, nil
	}
	return m, cluster.Summarize(r.cl.PhaseLog(), r.cl.Config())
}

// snapshot is the step's boundary state stamped with the fit's name and the
// fault cursor.
func (r *Run) snapshot(step Step, iter int) *checkpoint.Snapshot {
	snap := step.Snapshot(iter)
	snap.Fit = r.fit
	if r.cursor != nil {
		snap.FaultEpoch = r.cursor.Epoch()
	}
	return snap
}

// checkpoint charges and writes one periodic snapshot. The simulated cost
// uses the modeled binary size (Snapshot.CostBytes), which depends only on
// the state shapes — never on the metric values being serialized — so the
// charge is bit-identical between an uninterrupted run and a crashed+resumed
// one. The charge lands before the snapshot's Metrics are captured: on
// resume the clock restores to the post-write value, exactly what the
// uninterrupted run's clock reads going into the next iteration.
func (r *Run) checkpoint(step Step, iter int) error {
	snap := r.snapshot(step, iter)
	cost := snap.CostBytes()
	if r.cl != nil {
		r.cl.ChargeCheckpoint(cost) // emits the checkpoint span itself
	} else {
		r.local.CheckpointBytes += cost
		r.opt.Tracer.Event("checkpoint", trace.I("checkpoint_bytes", cost))
	}
	snap.Metrics = r.metrics()
	if _, err := checkpoint.Save(r.opt.Checkpoint.Dir, snap); err != nil {
		return fmt.Errorf("driver: writing checkpoint at iteration %d: %w", iter, err)
	}
	if err := r.corrupt(iter, snap.Bytes); err != nil {
		return fmt.Errorf("driver: injecting checkpoint fault at iteration %d: %w", iter, err)
	}
	return r.prune(iter)
}

// corrupt damages the just-written snapshot file when the fault plan says
// this generation is the unlucky one: either a torn write (truncation, as if
// the process died mid-flush of a non-atomic writer) or a flipped bit at a
// plan-derived offset. Only the file is damaged — driver state and the
// simulated clock are untouched, so the run continues as if the write had
// succeeded, and only a later resume discovers (and quarantines) the bad
// generation.
func (r *Run) corrupt(iter int, size int64) error {
	f := r.opt.Faults
	if !f.SnapshotCorrupt(iter) {
		return nil
	}
	torn := f.SnapshotTorn(iter)
	off := f.CorruptOffset("ckpt", iter, size)
	kind := int64(0)
	if torn {
		kind = 1
	}
	r.opt.Tracer.Event("checkpoint-corrupted",
		trace.I("iter", int64(iter)), trace.I("torn", kind), trace.I("offset", off))
	return checkpoint.Corrupt(filepath.Join(r.opt.Checkpoint.Dir, checkpoint.FileName(iter)), torn, off)
}

// prune drops snapshot generations beyond Checkpoint.Keep.
func (r *Run) prune(iter int) error {
	if ck := r.opt.Checkpoint; ck.Keep >= 0 {
		if err := checkpoint.Prune(ck.Dir, ck.Keep); err != nil {
			return fmt.Errorf("driver: pruning checkpoints at iteration %d: %w", iter, err)
		}
	}
	return nil
}

// abort converts an observed interrupt into a resumable *cluster.AbortError.
// last is the number of completed iterations; atBoundary reports whether the
// state is exactly the post-iteration-last state (true for the loop's polls,
// false when an engine phase unwound mid-iteration). Only a boundary abort
// may flush a fresh snapshot — mid-iteration state is not a valid model.
func (r *Run) abort(step Step, last int, cause error, atBoundary bool) error {
	ab := &cluster.AbortError{Iter: last, Cause: cause, SimSeconds: r.metrics().SimSeconds}
	if errors.Is(cause, cluster.ErrStalled) {
		ab.Diagnostic = r.cl.StallDiagnostic()
	}
	if ck := r.opt.Checkpoint; ck.Enabled() {
		switch {
		case last > 0 && last%ck.Interval == 0:
			// The periodic write at this boundary already covers it (written
			// this incarnation, or the snapshot this run resumed from).
			ab.Checkpointed = true
		case atBoundary && last > 0:
			if err := r.flush(step, last); err != nil {
				r.opt.Tracer.Event("final-checkpoint-failed", trace.I("iter", int64(last)))
			} else {
				ab.Checkpointed = true
			}
		default:
			// Abandoned iteration: the newest periodic snapshot (or the one
			// this run resumed from) is the resume point, if any exists.
			ab.Checkpointed = last >= ck.Interval || r.opt.Resume != nil
		}
	}
	ck := int64(0)
	if ab.Checkpointed {
		ck = 1
	}
	r.opt.Tracer.Event(cluster.AbortEventName(cause), trace.I("iter", int64(last)), trace.I("checkpointed", ck))
	return ab
}

// Final-snapshot flush retry bounds. The flush is the run's last chance to
// preserve progress before unwinding, so transient real-I/O failures are
// retried with exponential backoff (real time — the simulated clock is never
// involved in abort handling).
const (
	flushRetries = 3
	flushBackoff = 25 * time.Millisecond
)

// flush writes an out-of-interval snapshot at an abort boundary. Unlike the
// periodic checkpoint it charges NOTHING to the simulated cluster: the
// uninterrupted run never pays for this write, and the snapshot's metrics
// must equal the boundary state exactly so a resume continues bit-identically.
func (r *Run) flush(step Step, iter int) error {
	snap := r.snapshot(step, iter)
	snap.Metrics = r.metrics()
	var err error
	backoff := flushBackoff
	for attempt := 0; attempt <= flushRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if _, err = checkpoint.Save(r.opt.Checkpoint.Dir, snap); err == nil {
			r.opt.Tracer.Event("final-checkpoint",
				trace.I("iter", int64(iter)), trace.I("retries", int64(attempt)))
			return r.prune(iter)
		}
	}
	return fmt.Errorf("driver: final checkpoint at iteration %d failed after %d retries: %w",
		iter, flushRetries, err)
}
