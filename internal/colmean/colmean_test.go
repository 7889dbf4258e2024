package colmean

import (
	"math"
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/rdd"
)

// both computes the column means on MapReduce and on Spark, each on a fresh
// cluster with plan armed (nil runs fault-free), and returns the cluster
// metrics of each.
func both(t *testing.T, rows []matrix.SparseVector, dims int, plan *cluster.FaultPlan) (mr, sp []float64, mrm, spm cluster.Metrics) {
	t.Helper()
	eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
	eng.Faults = plan
	mr, err := MapReduce(eng, "meanJob", rows, dims)
	if err != nil {
		t.Fatal(err)
	}
	ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig()))
	ctx.SetFaultPlan(plan)
	y := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
	sp, err = Spark(ctx, y, "meanJob", dims)
	if err != nil {
		t.Fatal(err)
	}
	return mr, sp, eng.Cluster.Metrics(), ctx.Cluster().Metrics()
}

func tweets() (*matrix.Sparse, []matrix.SparseVector) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 600, Cols: 80, Seed: 9})
	return y, dataset.Rows(y)
}

func TestMatchesColMeans(t *testing.T) {
	y, rows := tweets()
	want := y.ColMeans()
	mr, sp, _, _ := both(t, rows, y.C, nil)
	for name, got := range map[string][]float64{"mapreduce": mr, "spark": sp} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d means, want %d", name, len(got), len(want))
		}
		for j, w := range want {
			if math.Abs(got[j]-w) > 1e-15*math.Abs(w) {
				t.Errorf("%s: column %d mean %v, ColMeans %v", name, j, got[j], w)
			}
		}
	}
}

// TestBitIdentical: the means do not depend on how many kernel workers run,
// nor on which task attempts a fault plan fails and retries.
func TestBitIdentical(t *testing.T) {
	y, rows := tweets()
	mr, sp, _, _ := both(t, rows, y.C, nil)
	equal := func(what string, a, b []float64) {
		t.Helper()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: column %d mean %v, want %v", what, j, b[j], a[j])
			}
		}
	}

	parallel.SetWorkers(4)
	mr4, sp4, _, _ := both(t, rows, y.C, nil)
	parallel.SetWorkers(0)
	equal("mapreduce, 4 workers", mr, mr4)
	equal("spark, 4 workers", sp, sp4)

	plan := &cluster.FaultPlan{Seed: 7, TaskFailureRate: 0.3, NodeLossRate: 0.2, MaxAttempts: 12}
	mrf, spf, mrm, spm := both(t, rows, y.C, plan)
	if mrm.FailedAttempts == 0 || spm.RecomputedOps == 0 {
		t.Fatalf("fault plan fired nothing: mapreduce %+v, spark %+v", mrm, spm)
	}
	equal("mapreduce, task faults", mr, mrf)
	equal("spark, task faults", sp, spf)
}

func TestRejectsZeroRows(t *testing.T) {
	eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
	if _, err := MapReduce(eng, "meanJob", nil, 5); err == nil {
		t.Error("mapreduce: mean of zero rows accepted")
	}
	ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig()))
	y := rdd.Parallelize(ctx, "Y", nil, mapred.BytesOfSparseVec)
	if _, err := Spark(ctx, y, "meanJob", 5); err == nil {
		t.Error("spark: mean of zero rows accepted")
	}
}
