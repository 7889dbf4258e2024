package spca

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// corruptPlan arms payload corruption alone: every shuffle payload, cached
// partition, and broadcast block has a 20% chance per transfer of arriving
// corrupt. MaxAttempts 12 makes an unrecoverable payload unreachable in
// practice (0.2^12 per transfer), so any seed from the randomized Makefile
// run is safe.
func corruptPlan(seed uint64) *FaultPlan {
	return &FaultPlan{Seed: seed, CorruptionRate: 0.2, MaxAttempts: 12}
}

// TestCorruptModelsBitIdentical is the data-integrity core assertion: with
// payload corruption injected, every detected corruption is re-fetched and
// charged — the fitted model stays bit-identical to the corruption-free fit
// while the new counters prove corruption actually fired and was paid for.
func TestCorruptModelsBitIdentical(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 600, Cols: 80, Seed: 9})
	seed := chaosSeed(t)
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, RSVDSpark, MahoutPCA} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			base := Config{Algorithm: alg, Components: 5, MaxIter: 4}
			clean, err := Fit(y, base)
			if err != nil {
				t.Fatal(err)
			}
			if m := clean.Metrics; m.CorruptPayloads != 0 || m.ReverifySeconds != 0 {
				t.Fatalf("corruption-free fit charged corruption metrics: %v", m)
			}

			cfg := base
			cfg.Faults = corruptPlan(seed)
			faulty, err := Fit(y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Components.MaxAbsDiff(faulty.Components) != 0 {
				t.Fatal("components not bit-identical under injected corruption")
			}
			if clean.Err != faulty.Err || clean.Iterations != faulty.Iterations {
				t.Fatalf("fit trajectory diverged under corruption: err %v vs %v, iters %d vs %d",
					clean.Err, faulty.Err, clean.Iterations, faulty.Iterations)
			}
			m := faulty.Metrics
			if m.CorruptPayloads == 0 {
				t.Fatalf("corruption plan injected no corruption: %v", m)
			}
			if m.ReverifySeconds <= 0 {
				t.Fatalf("re-transfer cost not charged: %v", m)
			}
			if m.SimSeconds <= clean.Metrics.SimSeconds {
				t.Fatalf("corrupted run not slower: %.3fs vs clean %.3fs",
					m.SimSeconds, clean.Metrics.SimSeconds)
			}
		})
	}
}

// TestCorruptWithTaskFaultsBitIdentical layers payload corruption on top of
// the full task-fault chaos plan: the two fault families draw from
// independent streams, recover through the same retry machinery, and must
// still leave the model untouched.
func TestCorruptWithTaskFaultsBitIdentical(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 500, Cols: 70, Seed: 9})
	seed := chaosSeed(t)
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, RSVDSpark, MahoutPCA} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			base := Config{Algorithm: alg, Components: 5, MaxIter: 3}
			clean, err := Fit(y, base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Faults = chaosPlan(seed)
			cfg.Faults.CorruptionRate = 0.1
			faulty, err := Fit(y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Components.MaxAbsDiff(faulty.Components) != 0 {
				t.Fatal("components not bit-identical under combined faults+corruption")
			}
			m := faulty.Metrics
			if m.CorruptPayloads == 0 || m.FailedAttempts == 0 {
				t.Fatalf("combined plan did not fire both fault families: %v", m)
			}
		})
	}
}

// TestCorruptCombinedPlanResume is the full-stack scenario: payload
// corruption + task faults + an injected driver crash with checkpointing.
// The resumed incarnation must draw the same corruption the uninterrupted
// run would, keeping model, clock, and corruption accounting bit-identical.
func TestCorruptCombinedPlanResume(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 500, Cols: 70, Seed: 9})
	seed := chaosSeed(t)
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, RSVDSpark, MahoutPCA} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			plan := func() *FaultPlan {
				p := chaosPlan(seed)
				p.CorruptionRate = 0.1
				return p
			}
			base := Config{Algorithm: alg, Components: 5, MaxIter: 4, Tol: -1,
				Faults:     plan(),
				Checkpoint: CheckpointSpec{Interval: 1, Dir: t.TempDir()}}
			clean, err := Fit(y, base)
			if err != nil {
				t.Fatal(err)
			}
			crashed := base
			crashed.Checkpoint.Dir = t.TempDir()
			crashed.Faults = plan()
			crashed.Faults.DriverCrashIters = []int{2}
			res, err := Fit(y, crashed)
			if err != nil {
				t.Fatal(err)
			}
			if modelFingerprint(res) != modelFingerprint(clean) {
				t.Error("corruption+faults+crash: model not bit-identical to no-crash run")
			}
			if res.Metrics.SimSeconds != clean.Metrics.SimSeconds {
				t.Errorf("SimSeconds %v != %v", res.Metrics.SimSeconds, clean.Metrics.SimSeconds)
			}
			if res.Metrics.CorruptPayloads != clean.Metrics.CorruptPayloads {
				t.Errorf("corruption draws diverged after resume: %d corrupt payloads vs %d",
					res.Metrics.CorruptPayloads, clean.Metrics.CorruptPayloads)
			}
			if res.Metrics.FailedAttempts != clean.Metrics.FailedAttempts {
				t.Errorf("task-fault draws diverged after resume: %d failed attempts vs %d",
					res.Metrics.FailedAttempts, clean.Metrics.FailedAttempts)
			}
			if res.Metrics.DriverRestarts != 1 {
				t.Errorf("DriverRestarts = %d, want 1", res.Metrics.DriverRestarts)
			}
		})
	}
}

// TestCorruptNewestSnapshotResume drives multi-generation recovery: the
// snapshot the crash would resume from is corrupted on disk, so the resume
// must quarantine it and fall back to the previous generation — and still
// land on a model bit-identical to the uninterrupted run on the same
// simulated clock, with the quarantine surfaced in CorruptPayloads.
func TestCorruptNewestSnapshotResume(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 500, Cols: 70, Seed: 9})
	// Find a plan seed whose checkpoint-corruption draws damage exactly the
	// newest pre-crash generation (iteration 4) and spare the older one
	// (iteration 2). The draws are pure functions of the seed, so the search
	// is deterministic and the scenario is pinned, not probabilistic.
	var seed uint64
	for s := uint64(1); ; s++ {
		p := &FaultPlan{Seed: s, CheckpointCorruptionRate: 0.5}
		if p.SnapshotCorrupt(4) && !p.SnapshotCorrupt(2) {
			seed = s
			break
		}
	}
	for _, alg := range []Algorithm{SPCAMapReduce, SPCASpark, RSVDMapReduce, RSVDSpark, MahoutPCA} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			base := Config{Algorithm: alg, Components: 5, MaxIter: 6, Tol: -1,
				Checkpoint: CheckpointSpec{Interval: 2, Dir: t.TempDir()}}
			clean, err := Fit(y, base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Checkpoint.Dir = t.TempDir()
			cfg.Faults = &FaultPlan{Seed: seed, CheckpointCorruptionRate: 0.5, DriverCrashIters: []int{5}}
			res, err := Fit(y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if modelFingerprint(res) != modelFingerprint(clean) {
				t.Error("resume over corrupt newest snapshot: model not bit-identical to uninterrupted run")
			}
			if res.Metrics.SimSeconds != clean.Metrics.SimSeconds {
				t.Errorf("SimSeconds %v != %v", res.Metrics.SimSeconds, clean.Metrics.SimSeconds)
			}
			if res.Metrics.DriverRestarts != 1 {
				t.Errorf("DriverRestarts = %d, want 1", res.Metrics.DriverRestarts)
			}
			if res.Metrics.CorruptPayloads != 1 {
				t.Errorf("CorruptPayloads = %d, want 1 (the quarantined generation)", res.Metrics.CorruptPayloads)
			}
			if _, err := os.Stat(filepath.Join(cfg.Checkpoint.Dir, "ckpt-000004.spck.quarantined")); err != nil {
				t.Errorf("corrupt generation not quarantined on disk: %v", err)
			}
		})
	}
}

// TestCorruptAllSnapshotsScratchRestart: when every retained generation is
// corrupt, the resume quarantines them all and restarts from scratch — still
// bit-identical, with the whole crashed incarnation charged as recovery.
func TestCorruptAllSnapshotsScratchRestart(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 400, Cols: 60, Seed: 9})
	base := Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 4, Tol: -1,
		Checkpoint: CheckpointSpec{Interval: 1, Dir: t.TempDir()}}
	clean, err := Fit(y, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Checkpoint.Dir = t.TempDir()
	cfg.Faults = &FaultPlan{Seed: 1, CheckpointCorruptionRate: 1, DriverCrashIters: []int{3}}
	res, err := Fit(y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if modelFingerprint(res) != modelFingerprint(clean) {
		t.Error("scratch restart after total snapshot loss: model not bit-identical")
	}
	if res.Metrics.SimSeconds != clean.Metrics.SimSeconds {
		t.Errorf("SimSeconds %v != %v", res.Metrics.SimSeconds, clean.Metrics.SimSeconds)
	}
	// All three pre-crash generations (Keep defaults to 3) were quarantined.
	if res.Metrics.CorruptPayloads != 3 {
		t.Errorf("CorruptPayloads = %d, want 3 quarantined generations", res.Metrics.CorruptPayloads)
	}
	if res.Metrics.RecoverySeconds <= 0 {
		t.Errorf("scratch restart charged no recovery: %v", res.Metrics.RecoverySeconds)
	}
}

// TestCorruptUnrecoverablePayloadFatal pins the failure mode: when every
// re-fetch of a payload is corrupt (rate 1) the retry budget exhausts and the
// fit fails with the typed sentinel instead of looping or returning a
// poisoned model.
func TestCorruptUnrecoverablePayloadFatal(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 300, Cols: 50, Seed: 9})
	cfg := Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 3,
		Faults: &FaultPlan{Seed: 1, CorruptionRate: 1}}
	_, err := Fit(y, cfg)
	if !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("want ErrCorruptPayload, got %v", err)
	}
}

// TestCorruptSnapshotRetention checks the save-path retention policy: a long
// checkpointed run keeps only the newest generations (default 3), and a
// negative Keep disables pruning.
func TestCorruptSnapshotRetention(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 300, Cols: 50, Seed: 9})
	count := func(dir string) int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".spck" {
				n++
			}
		}
		return n
	}
	cfg := Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 5, Tol: -1,
		Checkpoint: CheckpointSpec{Interval: 1, Dir: t.TempDir()}}
	if _, err := Fit(y, cfg); err != nil {
		t.Fatal(err)
	}
	if got := count(cfg.Checkpoint.Dir); got != 3 {
		t.Errorf("default retention kept %d generations, want 3", got)
	}
	unlimited := cfg
	unlimited.Checkpoint.Dir = t.TempDir()
	unlimited.Checkpoint.Keep = -1
	if _, err := Fit(y, unlimited); err != nil {
		t.Fatal(err)
	}
	if got := count(unlimited.Checkpoint.Dir); got != 5 {
		t.Errorf("Keep=-1 kept %d generations, want all 5", got)
	}
}

// TestCorruptCleanRunSnapshotGolden pins the corruption-free baseline: zero
// corruption counters, and the simulated checkpoint charge still follows the
// shape-only cost model the v1 format used — the v2 checksum trailer is free
// on the simulated clock, so every pre-existing golden SimSeconds holds.
func TestCorruptCleanRunSnapshotGolden(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Tweets, Rows: 300, Cols: 50, Seed: 9})
	cfg := Config{Algorithm: SPCAMapReduce, Components: 4, MaxIter: 4, Tol: -1,
		Checkpoint: CheckpointSpec{Interval: 2, Dir: t.TempDir()}}
	res, err := Fit(y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CorruptPayloads != 0 || res.Metrics.ReverifySeconds != 0 {
		t.Fatalf("clean run charged corruption metrics: %v", res.Metrics)
	}
	// Snapshots at iterations 2 and 4: 256 fixed + mean (cols) + components
	// (cols x d) at 8 bytes a float, + 64 per history entry (2 then 4).
	perSnap := int64(256 + 50*8 + 50*4*8)
	want := 2*perSnap + (2+4)*64
	if res.Metrics.CheckpointBytes != want {
		t.Errorf("CheckpointBytes = %d, want shape-model golden %d", res.Metrics.CheckpointBytes, want)
	}
}
