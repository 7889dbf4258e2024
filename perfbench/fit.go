package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"spca"
	"spca/internal/checkpoint"
)

// runFit runs fit-spark-sparse (checkpointing off) or fit-mapreduce-ckpt
// (checkpointing on). An operation is one whole spca.Fit of sPCA on a
// Tweets-like sparse matrix with a fixed iteration count.
func runFit(o *options, ckpt bool) (*outcome, error) {
	s := o.size
	alg, engine := spca.SPCASpark, "rdd"
	if ckpt {
		alg, engine = spca.SPCAMapReduce, "mapred"
	}
	base := spca.Config{Algorithm: alg, Components: s.fitD, MaxIter: s.fitIters, Tol: -1}

	// fit runs one fit after a forced collection and returns the clock
	// readings around the spca.Fit call alone. A checkpointed fit writes into
	// a fresh directory, removed after the call.
	fit := func(in *spca.Sparse, obs spca.Observer) (res *spca.Result, t0, t1 time.Time, err error) {
		cfg := base
		cfg.Observer = obs
		if ckpt {
			dir, err := os.MkdirTemp(o.workDir, "ckpt-")
			if err != nil {
				return nil, t0, t1, err
			}
			defer os.RemoveAll(dir)
			cfg.Checkpoint = spca.CheckpointSpec{Interval: 1, Dir: dir}
		}
		runtime.GC() // start every fit from the same heap state
		t0 = time.Now()
		res, err = spca.Fit(in, cfg)
		t1 = time.Now()
		return res, t0, t1, err
	}

	// Set up several times and keep the last: the first fit in a process
	// runs slower than later ones, and setup_s is the median.
	var (
		in    *spca.Sparse
		ref   *spca.Result
		setup []float64
	)
	for i := 0; i < s.setups; i++ {
		t0 := time.Now()
		var err error
		in, err = spca.NewDataset(spca.DatasetSpec{Kind: spca.Tweets, Rows: s.fitRows, Cols: s.fitCols, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		if ref, _, _, err = fit(in, nil); err != nil {
			return nil, fmt.Errorf("warm-up fit: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	refSum := modelDigest(&ref.Model)
	stall := stallMeter(s.stall)

	out := &outcome{values: map[string]float64{}}
	var plain, traced []float64 // op wall times, ms
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	log := newSpanLog(start)
	deadline := start.Add(o.window)
	end := start
	for op := 0; end.Before(deadline); op++ {
		// A traced run alternates traced and untraced fits, so the tracing
		// overhead is measured between interleaved halves.
		on := o.traced && op%2 == 1
		var obs spca.Observer
		if on {
			obs = log.observer(op)
		}
		res, t0, t1, err := fit(in, obs)
		end = time.Now()
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			out.note("op %d failed: %v", op, err)
			continue
		case modelDigest(&res.Model) != refSum || res.Metrics.SimSeconds != ref.Metrics.SimSeconds || res.Err != ref.Err:
			out.failed++
			out.note("op %d: model, sim_s or error differs from the warm-up fit", op)
			continue
		}
		if on {
			log.add(op, "spca.Fit", "op", t0, t1)
			traced = append(traced, ms(t1.Sub(t0)))
		} else {
			plain = append(plain, ms(t1.Sub(t0)))
		}
	}
	p1 := readProc()
	wall := end.Sub(start)
	ok := out.attempted - out.failed

	m := ref.Metrics
	out.note("input: tweets %dx%d, %d nonzeros, seed %d; %s, d=%d, %d iterations", in.R, in.C, in.NNZ(), o.seed, alg, s.fitD, ref.Iterations)
	out.note("%-26s %14.6g s (default 8x8 simulated cluster; repeats exactly)", "sim_s", m.SimSeconds)
	out.note("%-26s %14.6g ms/s", "host.stall_ms_per_s", stall)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !o.traced {
		out.note("fit times, ms: %.0f; setup times %.3f s", plain, setup)
		out.note("%-26s %14.6g ms (median of %d fits; reported, not gated)", "p50_ms", median(plain), len(plain))
		out.note("%-26s %14.6g 1/s (reported, not gated)", "ops_per_s", perSecond(ok, wall))
		out.values = map[string]float64{
			"setup_s":     median(setup),
			"peak_rss_mb": rss,
			"model_err":   ref.Err,
		}
		return out, nil
	}

	v := layerDefaults()
	out.values = v
	v["op.p50_ms"] = median(plain)
	fitLayers(v, log.spans, engine)
	v["ppca.iterations"] = float64(ref.Iterations)
	v["cluster.sim_s"] = m.SimSeconds
	v["cluster.shuffle_mb"] = float64(m.ShuffleBytes) / (1 << 20)
	v["cluster.task_attempts"] = float64(m.Tasks + m.FailedAttempts + m.SpeculativeTasks)
	v["cluster.failed_attempts"] = float64(m.FailedAttempts)
	procMetrics(v, p0, p1, out.attempted, wall)
	v["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	v["host.stall_ms_per_s"] = stall
	out.note("overhead: traced p50 over %d fits against untraced p50 over %d", len(traced), len(plain))
	if ckpt {
		dir, err := os.MkdirTemp(o.workDir, "probe-")
		if err != nil {
			return nil, err
		}
		v["checkpoint.save_ms"], v["checkpoint.bytes"], err = checkpointProbe(dir, ref, in.R, s)
		if err != nil {
			return nil, fmt.Errorf("checkpoint probe: %w", err)
		}
	}
	v["parallel.dispatch_us"], v["parallel.dispatch_allocs"] = parallelProbe(s)
	if err := log.write(o.spansOut); err != nil {
		return nil, err
	}
	out.note("spans: %d written to %s; %d phase/driver spans are instants (emitted back to back, no wall time)", len(log.spans), o.spansOut, log.instants())
	return out, nil
}

// fitLayers derives the per-layer wall times of the traced fits from their
// spans: the facade's time outside the EM iterations, the iteration time,
// the driver's self time within an iteration (everything but its job and
// action children: M-step, error sampling, snapshot writes) and the wall
// time of each engine job or action, prefixed with the engine's layer.
func fitLayers(v map[string]float64, spans []span, engine string) {
	type key struct{ op, id int }
	children := map[key]float64{} // summed job/action time under a parent span
	iterTotal := map[int]float64{}
	jobs := map[string][]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Kind {
		case string(spca.KindJob), string(spca.KindAction):
			children[key{s.Op, s.Parent}] += d
			jobs[s.Name] = append(jobs[s.Name], d)
		case string(spca.KindIteration):
			iterTotal[s.Op] += d
		}
	}
	var iters, driver, prelude []float64
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Kind {
		case string(spca.KindIteration):
			iters = append(iters, d)
			driver = append(driver, d-children[key{s.Op, s.ID}])
		case "op":
			prelude = append(prelude, d-iterTotal[s.Op])
		}
	}
	v["fit.prelude_ms"] = median(prelude)
	v["ppca.iter_ms"] = median(iters)
	v["ppca.driver_ms"] = median(driver)
	for _, j := range engineJobs {
		v[engine+"."+j+"_ms"] = median(jobs[j])
	}
}

// modelDigest is an FNV-64 over the bits of a model's components and mean:
// two fits agree on it only if they are bit-identical.
func modelDigest(m *spca.Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, xs := range [][]float64{m.Components.Data, m.Mean} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// checkpointProbe times checkpoint.Save plus Prune of a snapshot with the
// shape of the fit's driver state (the D x d components, the mean and the
// history of an N-row fit), writing successive generations into dir as the
// EM driver does. It returns the median milliseconds and the snapshot bytes.
func checkpointProbe(dir string, res *spca.Result, rows int, s sizes) (float64, float64, error) {
	dims, d := res.Dims()
	snap := &checkpoint.Snapshot{
		N: rows, Dims: dims, D: d, Seed: res.Seed,
		SS: res.NoiseVariance, Mean: res.Mean, C: res.Components, Metrics: res.Metrics,
	}
	for _, h := range res.History {
		snap.History = append(snap.History, checkpoint.HistoryEntry{Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds})
	}
	times := make([]float64, 0, s.probeBatches)
	var n int64
	for i := 1; i <= s.probeBatches; i++ {
		snap.Iter = i
		t0 := time.Now()
		var err error
		if n, err = checkpoint.Save(dir, snap); err == nil {
			err = checkpoint.Prune(dir, 0)
		}
		if err != nil {
			return 0, 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), float64(n), nil
}
