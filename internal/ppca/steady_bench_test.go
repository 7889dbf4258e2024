package ppca

// Steady-state allocation benchmarks for the pooled-scratch EM paths, plus
// whole-fit benchmarks on each engine. The mapper benchmarks must report ~0
// allocs/op.

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
)

func benchDriver(b *testing.B, n, dims, d int) (*matrix.Sparse, *emDriver) {
	b.Helper()
	rng := matrix.NewRNG(7)
	y := randomSparseMat(rng, n, dims, 0.3)
	mean := y.ColMeans()
	em := newEMDriver(DefaultOptions(d), n, dims, mean, y.CenteredFrobeniusSq(mean))
	if err := em.prepare(); err != nil {
		b.Fatal(err)
	}
	return y, em
}

// BenchmarkSteadyYtxMapperMap measures one row through the consolidated
// YtX/XtX/ΣX mapper on a warm partial. allocs/op must be ~0.
func BenchmarkSteadyYtxMapperMap(b *testing.B) {
	y, em := benchDriver(b, 512, 128, 10)
	p := newPartial(em.d, y.C)
	m := &ytxMapper{em: em, meanProp: true, p: p}
	emit := nopEmitter[int, []float64]{}
	for i := 0; i < y.R; i++ { // warm-up: claim every row block
		m.Map(y.Row(i), emit)
	}
	p.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%y.R == 0 {
			p.reset()
		}
		m.Map(y.Row(i%y.R), emit)
	}
}

// BenchmarkSteadySS3MapperMap measures one row through the associative ss3
// mapper on a warm partial. allocs/op must be ~0.
func BenchmarkSteadySS3MapperMap(b *testing.B) {
	y, em := benchDriver(b, 512, 128, 10)
	m := &ss3Mapper{em: em, c: em.c, meanProp: true, assoc: true, p: newPartial(em.d, y.C)}
	emit := nopEmitter[int, float64]{}
	for i := 0; i < y.R; i++ {
		m.Map(y.Row(i), emit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Map(y.Row(i%y.R), emit)
	}
}

// The whole-fit benchmarks keep their historical Pooled names so
// benchjson -compare still pairs them with the committed baselines.

func BenchmarkFitLocalPooled(b *testing.B) {
	y, _ := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLocal(y, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitMapReducePooled(b *testing.B) {
	_, rows := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
		if _, err := FitMapReduce(eng, rows, 500, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSparkPooled(b *testing.B) {
	_, rows := benchData(b, 2000, 500)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
		if _, err := FitSpark(ctx, rows, 500, opt); err != nil {
			b.Fatal(err)
		}
	}
}
