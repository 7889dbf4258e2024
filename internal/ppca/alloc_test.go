package ppca

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/rdd"
)

// nopEmitter satisfies mapred.Emitter for steady-state Map measurements —
// the consolidated mappers only emit from Cleanup, so Map sees no emitter
// traffic beyond op accounting.
type nopEmitter[K comparable, V any] struct{}

func (nopEmitter[K, V]) Emit(K, V)    {}
func (nopEmitter[K, V]) AddOps(int64) {}

func allocTestDriver(t *testing.T, n, dims, d int) (*matrix.Sparse, *emDriver) {
	t.Helper()
	rng := matrix.NewRNG(99)
	y := randomSparseMat(rng, n, dims, 0.3)
	mean := y.ColMeans()
	em := newEMDriver(DefaultOptions(d), n, dims, mean, y.CenteredFrobeniusSq(mean))
	if err := em.prepare(); err != nil {
		t.Fatal(err)
	}
	return y, em
}

// TestYtxMapperMapZeroAllocSteadyState: after one warm-up pass has claimed
// the partial's row blocks, an entire iteration's worth of Map calls on the
// consolidated YtX mapper allocates nothing.
func TestYtxMapperMapZeroAllocSteadyState(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)
	y, em := allocTestDriver(t, 60, 24, 4)
	p := newPartial(em.d, y.C)
	m := &ytxMapper{em: em, meanProp: true, p: p}
	emit := nopEmitter[int, []float64]{}
	for i := 0; i < y.R; i++ {
		m.Map(y.Row(i), emit)
	}
	allocs := testing.AllocsPerRun(10, func() {
		p.reset()
		for i := 0; i < y.R; i++ {
			m.Map(y.Row(i), emit)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ytxMapper.Map pass allocated %v times, want 0", allocs)
	}
}

// TestSS3MapperMapZeroAllocSteadyState: same property for the ss3 mapper in
// its optimized (associative) configuration.
func TestSS3MapperMapZeroAllocSteadyState(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)
	y, em := allocTestDriver(t, 60, 24, 4)
	m := &ss3Mapper{em: em, c: em.c, meanProp: true, assoc: true, p: newPartial(em.d, y.C)}
	emit := nopEmitter[int, float64]{}
	for i := 0; i < y.R; i++ {
		m.Map(y.Row(i), emit)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < y.R; i++ {
			m.Map(y.Row(i), emit)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ss3Mapper.Map pass allocated %v times, want 0", allocs)
	}
}

// TestPartialMergeIntoZeroAllocSteadyState: the fold behind Spark's YtX
// accumulator (reset the target, merge every task's partial, copy the total
// out with into) allocates nothing once the target has claimed its rows.
func TestPartialMergeIntoZeroAllocSteadyState(t *testing.T) {
	y, em := allocTestDriver(t, 60, 24, 4)
	parts := newPartials(3, em.d, y.C)
	for i := 0; i < y.R; i++ {
		p := parts[i%len(parts)]
		p.add(p.latent(y.Row(i), em, true), p.xi)
	}
	acc, sums := newPartial(em.d, y.C), newJobSums(y.C, em.d)
	fold := func() {
		acc.reset()
		for _, p := range parts {
			acc.merge(p)
		}
		acc.into(sums)
	}
	fold()
	if allocs := testing.AllocsPerRun(10, fold); allocs != 0 {
		t.Fatalf("steady-state partial merge+into allocated %v times, want 0", allocs)
	}
}

// TestFitAllocBounds bounds a whole fit's allocations on each distributed
// engine at the BenchmarkFit*Pooled input (2000×500 Tweets, d=10, three
// iterations). With per-task partials a Spark fit makes 3.9k allocations and
// a MapReduce fit 8.0k. With map-keyed Spark partials, a freelist and vector
// stealing, BenchmarkFit*Pooled read 21.7k and 8.2k allocs/op.
func TestFitAllocBounds(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 2000, Cols: 500, Seed: 1})
	rows := dataset.Rows(y)
	opt := DefaultOptions(10)
	opt.MaxIter = 3
	opt.Tol = 0
	for _, c := range []struct {
		name string
		max  float64
		fit  func() error
	}{
		{"spark", 4500, func() error {
			ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
			_, err := FitSpark(ctx, rows, y.C, opt)
			return err
		}},
		{"mapreduce", 8200, func() error {
			_, err := FitMapReduce(mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig())), rows, y.C, opt)
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(2, func() {
			if e := c.fit(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s fit: %v allocations", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s fit allocated %v times, want at most %v", c.name, allocs, c.max)
		}
	}
}
