package ppca

import (
	"testing"

	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/driver"
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
	parts := []*partial{newPartial(em.d, y.C), newPartial(em.d, y.C), newPartial(em.d, y.C)}
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

// allocFit is one engine's fit of a given number of iterations.
type allocFit struct {
	name string
	fit  func(iters int) error
}

// allocFits are the distributed engines' fits at the BenchmarkFit*Pooled
// input (2000×500 Tweets, d=10, Tol 0 so every iteration runs), without
// checkpoints.
func allocFits() []allocFit {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 2000, Cols: 500, Seed: 1})
	rows := dataset.Rows(y)
	opt := func(iters int) Options {
		o := DefaultOptions(10)
		o.MaxIter = iters
		o.Tol = 0
		return o
	}
	return []allocFit{
		{"spark", func(iters int) error {
			ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig().WithTaskOverhead(0.05)))
			_, err := FitSpark(ctx, rows, y.C, opt(iters))
			return err
		}},
		{"mapreduce", func(iters int) error {
			_, err := FitMapReduce(mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig())), rows, y.C, opt(iters))
			return err
		}},
	}
}

// allocs is the allocations of one fit of iters iterations.
func (f allocFit) allocs(t *testing.T, iters int) float64 {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		if e := f.fit(iters); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", f.name, err)
	}
	return allocs
}

// TestFitAllocBounds bounds a whole three-iteration fit's allocations on
// each distributed engine. AllocsPerRun runs the fit at GOMAXPROCS 1, so
// both engines' tasks run inline, in order, and share one pooled partial: a
// Spark fit makes ~830 allocations (3.1k with a partial per partition) and
// a MapReduce fit 6.3k (7.1k while mapred ran map tasks on the simulated
// cluster's 64 cores); 3.9k and 8.0k while the sampled error allocated once
// per sampled row. With map-keyed Spark partials, a freelist and vector
// stealing, BenchmarkFit*Pooled read 21.7k and 8.2k allocs/op.
func TestFitAllocBounds(t *testing.T) {
	max := map[string]float64{"spark": 900, "mapreduce": 6750}
	for _, c := range allocFits() {
		allocs := c.allocs(t, 3)
		t.Logf("%s fit: %v allocations", c.name, allocs)
		if allocs > max[c.name] {
			t.Errorf("%s fit allocated %v times, want at most %v", c.name, allocs, max[c.name])
		}
	}
}

// TestFitAllocsPerIteration bounds what one more EM iteration allocates on
// each distributed engine: a four-iteration fit minus a three-iteration one.
// It reads 19 on Spark (557 while each partition held its own partial) and
// 814 on MapReduce (1013 while map tasks ran on 64 goroutines). Graded row
// by row, the sampled error made one more allocation per sampled row (256),
// and the difference read 813 and 1271.
func TestFitAllocsPerIteration(t *testing.T) {
	max := map[string]float64{"spark": 40, "mapreduce": 860}
	for _, c := range allocFits() {
		extra := c.allocs(t, 4) - c.allocs(t, 3)
		t.Logf("%s: %v allocations per extra iteration", c.name, extra)
		if extra > max[c.name] {
			t.Errorf("%s: one more iteration allocated %v times, want at most %v", c.name, extra, max[c.name])
		}
	}
}

// TestSparkFitPoolsPartials: at one worker each Spark task's partial is
// folded into the YtX accumulator as soon as the task merges it and goes
// back to the pool, so a whole fit's tasks take turns with one pooled
// partial. The accumulator's fold target is the only other one. The fit is
// FitSpark's EM loop on FitSpark's engine; at the pool's default width
// (GOMAXPROCS workers) the count depends on the schedule and is logged.
func TestSparkFitPoolsPartials(t *testing.T) {
	defer parallel.SetWorkers(0)
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 2000, Cols: 500, Seed: 1})
	rows := dataset.Rows(y)
	opt := DefaultOptions(10)
	opt.MaxIter, opt.Tol = 3, 0
	mean := y.ColMeans()
	for _, workers := range []int{1, 0} {
		parallel.SetWorkers(workers)
		ctx := rdd.NewContext(cluster.MustNew(cluster.DefaultConfig()))
		yr := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec).Persist()
		em := newEMDriver(opt, len(rows), y.C, mean, y.CenteredFrobeniusSq(mean))
		e := newSparkEngine(ctx, yr, y.C, opt)
		run := driver.New("spca-spark", opt.Options, ctx.Cluster(), ctx)
		if _, err := em.fit(run, e, accuracy.Draw(rows, y.C, accuracy.Seed(opt.Seed))); err != nil {
			t.Fatal(err)
		}
		made := e.parts.made.Load()
		t.Logf("%d workers: %d pooled partials over %d partitions", parallel.Workers(), made, yr.NumPartitions())
		if workers == 1 && made != 1 {
			t.Errorf("a one-worker Spark fit allocated %d pooled partials, want 1", made)
		}
	}
}
