package ppca

// Micro-benchmarks for the sPCA kernels and the design-choice ablations
// DESIGN.md calls out. These measure real CPU time of the actual math
// (unlike the simulated-cluster seconds the experiments report), so they
// also demonstrate that the optimizations pay off on real hardware, not
// just in the cost model.

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
)

func benchData(b *testing.B, n, dims int) (*matrix.Sparse, []matrix.SparseVector) {
	b.Helper()
	y := dataset.MustGenerate(dataset.Spec{
		Kind: dataset.KindTweets, Rows: n, Cols: dims, Seed: 1,
	})
	return y, dataset.Rows(y)
}

func BenchmarkFitLocal(b *testing.B) {
	y, _ := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLocal(y, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitStream exercises the out-of-core engine on the same workload
// as the other fit benchmarks (two sequential passes per EM iteration over a
// RowSource). Feeds BENCH_*.json via `make bench-json`.
func BenchmarkFitStream(b *testing.B) {
	y, _ := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitStream(matrix.SparseSource{M: y}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitMapReduce(b *testing.B) {
	_, rows := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
		if _, err := FitMapReduce(eng, rows, 500, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSpark(b *testing.B) {
	_, rows := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
		if _, err := FitSpark(ctx, rows, 500, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAblation measures one EM iteration of FitLocal-equivalent work
// through the Spark path with a single optimization flipped.
func benchAblation(b *testing.B, mutate func(*Options)) {
	_, rows := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 1
	opt.Tol = 0
	mutate(&opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
		if _, err := FitSpark(ctx, rows, 500, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(*Options) {})
}

func BenchmarkAblationNoMeanPropagation(b *testing.B) {
	benchAblation(b, func(o *Options) { o.MeanPropagation = false })
}

func BenchmarkAblationNoMinimizeIntermediate(b *testing.B) {
	benchAblation(b, func(o *Options) { o.MinimizeIntermediate = false })
}

func BenchmarkAblationNoEfficientFrobenius(b *testing.B) {
	benchAblation(b, func(o *Options) { o.EfficientFrobenius = false })
}

func BenchmarkAblationNoAssociativeSS3(b *testing.B) {
	benchAblation(b, func(o *Options) { o.AssociativeSS3 = false })
}

func BenchmarkFrobeniusOptimized(b *testing.B) {
	y, _ := benchData(b, 5000, 2000)
	mean := y.ColMeans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = y.CenteredFrobeniusSq(mean)
	}
}

func BenchmarkFrobeniusSimple(b *testing.B) {
	y, _ := benchData(b, 5000, 2000)
	mean := y.ColMeans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = y.CenteredFrobeniusSqSimple(mean)
	}
}

func BenchmarkFitMissing(b *testing.B) {
	holed, _ := lowRankDenseWithHoles(200, 50, 4, 0.2, 1)
	opt := DefaultOptions(4)
	opt.MaxIter = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMissing(holed, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitMixture(b *testing.B) {
	y, _ := twoSubspaceData(200, 30, 3, 2)
	opt := DefaultMixtureOptions(2, 3)
	opt.MaxIter = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMixture(y, opt); err != nil {
			b.Fatal(err)
		}
	}
}
