package ssvd

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
)

// TestFitAllocBound bounds one Mahout-PCA fit's allocations at
// BenchmarkFitSSVD's input (2000×500 Tweets, d=10, one round). Its Bt job
// shuffles through mapred's map store, one fresh vector per non-zero; its Q
// job is rsvd's projection job, on the slab store with pooled mappers. The
// fit makes about 39.7k allocations; 46.3k while the Q job ran on the map
// store with a fresh vector per row, and when the map store sorted int keys
// by their fmt.Sprint strings, BenchmarkFitSSVD read 165–166k allocs/op.
func TestFitAllocBound(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 2000, Cols: 500, Seed: 1})
	rows := dataset.Rows(y)
	opt := DefaultOptions(10)
	opt.MaxRounds = 1
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
		if _, e := FitMapReduce(eng, rows, 500, opt); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ssvd fit: %v allocations", allocs)
	const bound = 44000
	if allocs > bound {
		t.Errorf("ssvd fit allocated %v times, want at most %v", allocs, bound)
	}
}
