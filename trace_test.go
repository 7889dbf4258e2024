package spca

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"spca/internal/matrix"
	"spca/internal/trace"
)

// traceAlgorithms lists every algorithm the trace subsystem covers.
func traceAlgorithms() []Algorithm {
	return []Algorithm{LocalPPCA, SPCAMapReduce, SPCASpark, MahoutPCA, MLlibPCA, SVDBidiag, RSVDMapReduce, RSVDSpark}
}

func fitTraced(t *testing.T, alg Algorithm, mutate func(*Config)) *Result {
	t.Helper()
	y := smallDataset(t)
	cfg := Config{Algorithm: alg, Components: 3, MaxIter: 3, CollectTrace: true}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Fit(y, cfg)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	if res.Trace == nil {
		t.Fatalf("%s: CollectTrace set but Result.Trace is nil", alg)
	}
	return res
}

// TestTraceStructure checks the span tree every algorithm produces: one root
// fit span, one phase span per charged cluster phase, and iteration stats
// matching the result's history.
func TestTraceStructure(t *testing.T) {
	for _, alg := range traceAlgorithms() {
		res := fitTraced(t, alg, nil)
		tr := res.Trace

		fits := tr.FindKind(KindFit)
		if len(fits) != 1 {
			t.Errorf("%s: %d fit spans, want 1", alg, len(fits))
			continue
		}
		if fits[0].Parent != 0 {
			t.Errorf("%s: fit span has parent %d, want root (0)", alg, fits[0].Parent)
		}
		if got := len(tr.FindKind(KindPhase)); got != int(res.Metrics.Phases) {
			t.Errorf("%s: %d phase spans, cluster charged %d phases", alg, got, res.Metrics.Phases)
		}
		if len(tr.Iterations) == 0 {
			t.Errorf("%s: no iteration stats in trace", alg)
		}
		if len(res.History) > 0 && len(tr.Iterations) != len(res.History) {
			t.Errorf("%s: %d trace iterations, history has %d", alg, len(tr.Iterations), len(res.History))
		}
		// Every non-root span must reference an existing parent.
		ids := map[int]bool{}
		for _, s := range tr.Spans {
			ids[s.ID] = true
		}
		for _, s := range tr.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %q parent %d not in trace", alg, s.Name, s.Parent)
			}
		}
	}
}

// TestTraceGoldenFingerprints pins the FNV fingerprint of the serialized span
// tree per algorithm. A change here means the trace layout, span order, or a
// cost charge moved — deliberate changes must update the constants.
func TestTraceGoldenFingerprints(t *testing.T) {
	golden := map[Algorithm]uint64{
		LocalPPCA:     0x4f63394ba8e98f3c,
		SPCAMapReduce: 0xeb53a8ac35bd7766,
		SPCASpark:     0xae5704138f03fe9d,
		MahoutPCA:     0xfa1af892991a883c,
		MLlibPCA:      0x651bd4ec61edf4da,
		SVDBidiag:     0xa4d9058398b474f8,
		RSVDMapReduce: 0xf4125ca1a93dbd5f,
		RSVDSpark:     0x44065c71a7fce699,
	}
	for _, alg := range traceAlgorithms() {
		first := fitTraced(t, alg, nil).Trace.Fingerprint()
		second := fitTraced(t, alg, nil).Trace.Fingerprint()
		if first != second {
			t.Errorf("%s: trace not deterministic: %#x vs %#x", alg, first, second)
			continue
		}
		if want := golden[alg]; first != want {
			t.Errorf("%s: trace fingerprint %#x, golden %#x", alg, first, want)
		}
	}

	// The durability paths, on one EM and one sketch engine: a driver crash
	// after iteration 2 resumed from its per-iteration snapshot, and a cancel
	// at boundary 2 with Interval 3, which forces the out-of-interval final
	// flush. These pin the order of the driver-crash, driver-restore,
	// checkpoint, final-checkpoint and abort events, not just determinism.
	crash := func(cfg *Config) {
		cfg.Tol = -1
		cfg.Faults = &FaultPlan{DriverCrashIters: []int{2}}
		cfg.Checkpoint = CheckpointSpec{Interval: 1, Dir: t.TempDir()}
	}
	flush := func(cfg *Config) {
		cfg.Tol = -1
		cfg.Checkpoint = CheckpointSpec{Interval: 3, Dir: t.TempDir()}
	}
	durable := []struct {
		alg           Algorithm
		crash, cancel uint64
	}{
		{SPCASpark, 0xdb6187b407f39a71, 0x4f6e7b404c5e1cdb},
		{RSVDMapReduce, 0x421e1f83dfa8ee16, 0xd5f7bcfef18f465d},
	}
	for _, g := range durable {
		if got := fitTraced(t, g.alg, crash).Trace.Fingerprint(); got != g.crash {
			t.Errorf("%s crash at 2: trace fingerprint %#x, golden %#x", g.alg, got, g.crash)
		}
		tr, ab := canceledTrace(t, g.alg, 2, flush)
		if ab.Iter != 2 || !ab.Checkpointed || len(tr.FindEvents("final-checkpoint")) != 1 {
			t.Errorf("%s cancel at 2: abort %+v with %d final-checkpoint events, want iter 2 flushed once",
				g.alg, ab, len(tr.FindEvents("final-checkpoint")))
		}
		if got := tr.Fingerprint(); got != g.cancel {
			t.Errorf("%s cancel at 2: trace fingerprint %#x, golden %#x", g.alg, got, g.cancel)
		}
	}
}

// canceledTrace is fitTraced for a fit canceled at the boundary after
// iteration n. The aborted Fit returns no Result, so the trace is collected
// by the observer that cancels it; the typed abort is returned alongside.
func canceledTrace(t *testing.T, alg Algorithm, n int, mutate func(*Config)) (*Trace, *AbortError) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelCollector{Collector: trace.NewCollector(), n: n, cancel: cancel}
	cfg := Config{Algorithm: alg, Components: 3, MaxIter: 3, Context: ctx, Observer: obs}
	mutate(&cfg)
	_, err := Fit(smallDataset(t), cfg)
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("%s: want *AbortError, got %v", alg, err)
	}
	return obs.Trace(), ab
}

// cancelCollector collects every span, event and iteration, and cancels
// the fit's context once iteration n is recorded.
type cancelCollector struct {
	*trace.Collector
	n      int
	cancel context.CancelFunc
}

func (c *cancelCollector) IterationDone(it TraceIteration) {
	c.Collector.IterationDone(it)
	if it.Iter == c.n {
		c.cancel()
	}
}

// TestTraceMetricsSum is the subsystem's core accounting invariant: summing
// the leaf spans' attributes in emission order reproduces the end-of-run
// Metrics bit for bit (the spans carry the exact charges, not end-start
// differences).
func TestTraceMetricsSum(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 400, Cols: 120, Seed: 1})
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 10, MaxIter: 4, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var sim, rec float64
	var ops, shuffle, disk, mat, tasks, failed, spec, phases int64
	for i := range res.Trace.Spans {
		s := &res.Trace.Spans[i]
		if s.Kind != KindPhase && s.Kind != KindDriver {
			continue
		}
		sim += s.AttrFloat("seconds")
		rec += s.AttrFloat("recovery_seconds")
		ops += s.AttrInt("compute_ops") + s.AttrInt("recomputed_ops")
		shuffle += s.AttrInt("shuffle_bytes")
		disk += s.AttrInt("disk_bytes") + s.AttrInt("recovery_disk_bytes")
		mat += s.AttrInt("materialized_bytes")
		tasks += s.AttrInt("tasks")
		failed += s.AttrInt("failed_attempts")
		spec += s.AttrInt("speculative_tasks")
		if s.Kind == KindPhase {
			phases++
		}
	}
	m := res.Metrics
	if sim != m.SimSeconds {
		t.Errorf("span seconds sum %v != SimSeconds %v", sim, m.SimSeconds)
	}
	if rec != m.RecoverySeconds {
		t.Errorf("span recovery sum %v != RecoverySeconds %v", rec, m.RecoverySeconds)
	}
	if ops != m.ComputeOps {
		t.Errorf("span ops sum %d != ComputeOps %d", ops, m.ComputeOps)
	}
	if shuffle != m.ShuffleBytes {
		t.Errorf("span shuffle sum %d != ShuffleBytes %d", shuffle, m.ShuffleBytes)
	}
	if disk != m.DiskBytes {
		t.Errorf("span disk sum %d != DiskBytes %d", disk, m.DiskBytes)
	}
	if mat != m.MaterializedBytes {
		t.Errorf("span materialized sum %d != MaterializedBytes %d", mat, m.MaterializedBytes)
	}
	if tasks != m.Tasks {
		t.Errorf("span tasks sum %d != Tasks %d", tasks, m.Tasks)
	}
	if failed != m.FailedAttempts || spec != m.SpeculativeTasks {
		t.Errorf("span fault sums (%d, %d) != Metrics (%d, %d)",
			failed, spec, m.FailedAttempts, m.SpeculativeTasks)
	}
	if phases != m.Phases {
		t.Errorf("%d phase spans != %d charged phases", phases, m.Phases)
	}
}

// TestTraceChaosRecoverySpans asserts that under an armed FaultPlan the trace
// carries the recovery story: recovery events on the faulted phases and
// recovery attributes summing to the metrics — and that the chaotic trace is
// still deterministic.
func TestTraceChaosRecoverySpans(t *testing.T) {
	run := func() *Result {
		return fitTraced(t, SPCASpark, func(cfg *Config) {
			cfg.Faults = &FaultPlan{
				Seed:                 7,
				TaskFailureRate:      0.2,
				NodeLossRate:         0.1,
				StragglerRate:        0.1,
				SpeculativeExecution: true,
				MaxAttempts:          12,
			}
		})
	}
	res := run()
	if res.Metrics.FailedAttempts == 0 {
		t.Fatal("fault plan injected no failures; test needs a harsher plan")
	}
	if len(res.Trace.FindEvents("recovery")) == 0 {
		t.Error("no recovery events in chaotic trace")
	}
	var failed int64
	var rec float64
	for i := range res.Trace.Spans {
		s := &res.Trace.Spans[i]
		if s.Kind == KindPhase {
			failed += s.AttrInt("failed_attempts")
			rec += s.AttrFloat("recovery_seconds")
		}
	}
	if failed != res.Metrics.FailedAttempts {
		t.Errorf("span failed-attempt sum %d != Metrics %d", failed, res.Metrics.FailedAttempts)
	}
	if rec != res.Metrics.RecoverySeconds {
		t.Errorf("span recovery-seconds sum %v != Metrics %v", rec, res.Metrics.RecoverySeconds)
	}
	if a, b := res.Trace.Fingerprint(), run().Trace.Fingerprint(); a != b {
		t.Errorf("chaotic trace not deterministic: %#x vs %#x", a, b)
	}
}

// TestTraceDriverCrashResume asserts the durability story in the trace: a
// crashed-and-resumed fit produces driver-crash and driver-restore events,
// puts the resumed incarnation's spans on their own lane, and two identical
// crashed runs produce bit-identical traces.
func TestTraceDriverCrashResume(t *testing.T) {
	run := func() *Result {
		return fitTraced(t, SPCASpark, func(cfg *Config) {
			cfg.MaxIter = 5
			cfg.Tol = -1
			cfg.Faults = &FaultPlan{DriverCrashIters: []int{2}}
			cfg.Checkpoint = CheckpointSpec{Interval: 1, Dir: t.TempDir()}
		})
	}
	res := run()
	if res.Metrics.DriverRestarts != 1 {
		t.Fatalf("DriverRestarts = %d, want 1", res.Metrics.DriverRestarts)
	}
	if len(res.Trace.FindEvents("driver-crash")) == 0 {
		t.Error("no driver-crash event in trace")
	}
	if len(res.Trace.FindEvents("driver-restore")) == 0 {
		t.Error("no driver-restore event in trace")
	}
	lanes := map[int]bool{}
	for _, s := range res.Trace.Spans {
		lanes[s.Lane] = true
	}
	if !lanes[0] || !lanes[1] {
		t.Errorf("want spans on lanes 0 and 1, got lanes %v", lanes)
	}
	// Both incarnations open a fit span; the crashed one closes via defer.
	if got := len(res.Trace.FindKind(KindFit)); got != 2 {
		t.Errorf("%d fit spans, want 2 (one per incarnation)", got)
	}
	if a, b := res.Trace.Fingerprint(), run().Trace.Fingerprint(); a != b {
		t.Errorf("crashed+resumed trace not deterministic: %#x vs %#x", a, b)
	}
}

// TestTraceSmoke is the end-to-end export path gated in make check: fit with
// a JSONL observer, re-parse the stream, and require the reconstructed trace
// to fingerprint identically to the in-memory one; then export Chrome
// trace_event JSON and validate it.
func TestTraceSmoke(t *testing.T) {
	y := smallDataset(t)
	var buf bytes.Buffer
	w := NewJSONLTraceWriter(&buf)
	res, err := Fit(y, Config{
		Algorithm: SPCASpark, Components: 3, MaxIter: 3,
		Observer: w, CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSONLTrace(&buf)
	if err != nil {
		t.Fatalf("re-parsing JSONL stream: %v", err)
	}
	if a, b := res.Trace.Fingerprint(), parsed.Fingerprint(); a != b {
		t.Fatalf("JSONL round-trip changed the trace: in-memory %#x, re-parsed %#x", a, b)
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, res.Trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	var export struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &export); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, e := range export.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != len(res.Trace.Spans) {
		t.Fatalf("Chrome export has %d complete events, trace has %d spans", complete, len(res.Trace.Spans))
	}
}

// TestSummaryMatchesPhaseLog: the trace-derived Summary and the phase-log
// fallback (no trace collected) must agree field for field.
func TestSummaryMatchesPhaseLog(t *testing.T) {
	y := smallDataset(t)
	cfg := Config{Algorithm: SPCASpark, Components: 3, MaxIter: 3}
	plain, err := Fit(y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CollectTrace = true
	traced, err := Fit(y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain.Summary(), traced.Summary()
	if len(a) == 0 {
		t.Fatal("phase-log summary is empty")
	}
	if len(a) != len(b) {
		t.Fatalf("summaries differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("summary row %d differs:\n phase-log: %+v\n trace:     %+v", i, a[i], b[i])
		}
	}
}

// TestBaselineHistoryPopulated pins the satellite fix: the single-pass
// baselines must report one real iteration stat instead of an empty history.
func TestBaselineHistoryPopulated(t *testing.T) {
	for _, alg := range []Algorithm{MLlibPCA, SVDBidiag} {
		res, err := Fit(smallDataset(t), Config{Algorithm: alg, Components: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Iterations != 1 || len(res.History) != 1 {
			t.Fatalf("%s: Iterations=%d, len(History)=%d, want 1 and 1", alg, res.Iterations, len(res.History))
		}
		h := res.History[0]
		if h.Iter != 1 || h.Err != res.Err || h.SimSeconds != res.Metrics.SimSeconds {
			t.Errorf("%s: History[0] = %+v, want iter 1, err %v, t %v",
				alg, h, res.Err, res.Metrics.SimSeconds)
		}
	}
}

// TestConfigEntryPoints checks the Config-based streaming and missing-data
// entry points: shared validation, typed input errors, and tracing.
func TestConfigEntryPoints(t *testing.T) {
	y := smallDataset(t)
	path := filepath.Join(t.TempDir(), "y.spmx")
	if err := SaveSparseFile(path, y, false); err != nil {
		t.Fatal(err)
	}

	// The Config path validates.
	if _, err := FitStreamFileConfig(path, Config{TargetAccuracy: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config = %v, want ErrBadConfig", err)
	}
	// Tracing works through the streaming entry point too.
	traced, err := FitStreamFileConfig(path, Config{Components: 3, MaxIter: 5, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || len(traced.Trace.FindKind(KindFit)) != 1 {
		t.Error("streamed fit did not produce a fit span")
	}

	dense := denseWithHole(t, y)
	if _, err := FitMissingConfig(dense, Config{Components: 3, MaxIter: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := FitMissingConfig(nil, Config{Components: 3}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("nil dense input = %v, want ErrEmptyInput", err)
	}
	inf := dense.Clone()
	inf.Set(0, 0, math.Inf(1))
	if _, err := FitMissingConfig(inf, Config{Components: 3}); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Inf dense input = %v, want ErrNonFiniteInput", err)
	}
	if _, err := FitMissingConfig(dense, Config{Components: 3, DivergeWindow: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config = %v, want ErrBadConfig", err)
	}
}

// denseWithHole densifies y and pokes a few NaN holes for the missing-data
// entry point.
func denseWithHole(t *testing.T, y *Sparse) *Dense {
	t.Helper()
	d := matrix.NewDense(y.R, y.C)
	for i := 0; i < y.R; i++ {
		row := y.Row(i)
		for k, j := range row.Indices {
			d.Set(i, j, row.Values[k])
		}
	}
	d.Set(1, 2, math.NaN())
	d.Set(7, 5, math.NaN())
	return d
}

// TestObserverCallbacks checks that a user observer sees a balanced span
// stream: every SpanStart has a matching SpanEnd with the same name and ID.
func TestObserverCallbacks(t *testing.T) {
	obs := &countingObserver{open: map[int]string{}}
	_, err := Fit(smallDataset(t), Config{
		Algorithm: SPCAMapReduce, Components: 3, MaxIter: 2, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.starts == 0 || obs.ends == 0 || obs.iters == 0 {
		t.Fatalf("observer saw starts=%d ends=%d iters=%d; want all > 0",
			obs.starts, obs.ends, obs.iters)
	}
	if obs.starts != obs.ends {
		t.Errorf("unbalanced span stream: %d starts, %d ends", obs.starts, obs.ends)
	}
	if len(obs.open) != 0 {
		t.Errorf("spans left open at end of fit: %v", obs.open)
	}
	if obs.mismatched != 0 {
		t.Errorf("%d SpanEnd callbacks did not match their SpanStart", obs.mismatched)
	}
}

type countingObserver struct {
	open                            map[int]string
	starts, ends, iters, mismatched int
}

func (o *countingObserver) SpanStart(s Span) {
	o.starts++
	o.open[s.ID] = s.Name
}

func (o *countingObserver) SpanEnd(s Span) {
	o.ends++
	if name, ok := o.open[s.ID]; !ok || name != s.Name {
		o.mismatched++
	}
	delete(o.open, s.ID)
}

func (o *countingObserver) Event(TraceEvent)             {}
func (o *countingObserver) IterationDone(TraceIteration) { o.iters++ }
