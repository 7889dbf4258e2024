package rsvd

import (
	"math"
	"testing"

	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/parallel"
)

// TestPooledSketchMappersReplayFailedAttempts: the projection and B jobs
// take their mappers from per-fit pools, and a mapper goes back from
// Cleanup, so a failed attempt's mapper serves a later task or its own
// retry. On four workers, under a plan that fails a quarter of the
// attempts, two passes of both jobs produce what a fault-free run on one
// worker does, bit for bit. Run under -race, it also shows that no mapper
// is handed out while its Cleanup still emits.
func TestPooledSketchMappersReplayFailedAttempts(t *testing.T) {
	defer parallel.SetWorkers(0)
	y, rows := plantedData(600, 80, 5, 3)
	mean, indexed := y.ColMeans(), IndexRows(rows)
	omega := matrix.NormRnd(matrix.NewRNG(1), y.C, 12)
	run := func(faults *cluster.FaultPlan, workers int) (p, b *matrix.Dense, failed int64) {
		parallel.SetWorkers(workers)
		eng := testEngine()
		eng.Faults = faults
		e := &mrEngine{eng: eng, dims: y.C, indexed: indexed, mean: mean, proj: NewProjector(eng, indexed, mean)}
		for pass := 0; pass < 2; pass++ {
			if err := e.proj.Run("proj", omega); err != nil {
				t.Fatal(err)
			}
			if err := e.bJob(e.proj.P); err != nil {
				t.Fatal(err)
			}
		}
		return e.proj.P, e.b, eng.Cluster.Metrics().FailedAttempts
	}
	wantP, wantB, _ := run(nil, 1)
	gotP, gotB, failed := run(&cluster.FaultPlan{Seed: 3, TaskFailureRate: 0.25, MaxAttempts: 12}, 4)
	if failed == 0 {
		t.Fatal("the fault plan failed no attempt")
	}
	for _, c := range []struct {
		name      string
		got, want *matrix.Dense
	}{{"P", gotP, wantP}, {"B", gotB, wantB}} {
		for i, w := range c.want.Data {
			if math.Float64bits(c.got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] = %v after %d failed attempts, want %v", c.name, i, c.got.Data[i], failed, w)
			}
		}
	}
}
