package ppca

import (
	"fmt"

	"spca/internal/accuracy"
	"spca/internal/driver"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// FitStream runs the PPCA EM algorithm over a row source — typically a
// disk-resident matrix streamed one row at a time — so inputs far larger
// than memory can be fitted on a single machine. Each EM iteration makes
// two sequential passes over the source (the consolidated YtX pass and the
// ss3 pass), mirroring sPCA's two distributed jobs; memory use is O(D·d)
// regardless of N.
//
// The reconstruction-error metric is computed on a row sample captured
// during the first pass. TargetAccuracy/IdealError are not supported in
// streaming mode (computing the ideal error needs a Lanczos solver with
// dozens of passes); stopping is by Tol and MaxIter.
func FitStream(src matrix.RowSource, opt Options) (*Result, error) {
	n, dims := src.Dims()
	if err := opt.validate(n, dims); err != nil {
		return nil, err
	}
	if opt.TargetAccuracy > 0 {
		return nil, fmt.Errorf("ppca: TargetAccuracy is not supported in streaming mode (stop by Tol/MaxIter)")
	}
	if tr := opt.Tracer; tr != nil {
		// No simulated cluster: the trace carries structure (iterations,
		// events) with all timestamps at zero.
		tr.Begin("FitStream", trace.KindFit,
			trace.I("rows", int64(n)), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}

	// Pass 0: column means, Frobenius norm (Algorithm 3 streamed), and the
	// error-metric row sample, all in one scan.
	mean := make([]float64, dims)
	var count float64
	if err := src.Scan(func(i int, row matrix.SparseVector) error {
		for k, j := range row.Indices {
			mean[j] += row.Values[k]
		}
		count++
		return nil
	}); err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("ppca: stream source yielded no rows")
	}
	matrix.VecScale(1/count, mean)

	msum := matrix.Dot(mean, mean)
	sampleWant := accuracy.Rows(n, accuracy.SampleRows, accuracy.Seed(opt.Seed))
	sampleBuilder := matrix.NewSparseBuilder(dims)
	nextSample := 0
	ss1 := msum * count
	if err := src.Scan(func(i int, row matrix.SparseVector) error {
		for k, j := range row.Indices {
			v := row.Values[k]
			d := v - mean[j]
			ss1 += d*d - mean[j]*mean[j]
		}
		if nextSample < len(sampleWant) && sampleWant[nextSample] == i {
			sampleBuilder.AddRow(row.Indices, row.Values) // AddRow copies
			nextSample++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sample := accuracy.New(sampleBuilder.Build())

	// On resume pass 0 above is re-run (the sample capture needs a scan
	// regardless, and its mean/ss1 are bit-identical to the snapshot's).
	run := driver.New("ppca-stream", opt.Options, nil, nil)
	if err := run.Resume(n, dims, opt.Components, opt.Seed); err != nil {
		return nil, err
	}
	em := newEMDriver(opt, n, dims, mean, ss1)
	// The pass partial and sums are hoisted out of the iteration loop and
	// reset in place each iteration.
	return em.fit(run, &streamEngine{src: src, p: newPartial(em.d, dims), sums: newJobSums(dims, em.d)}, sample)
}

// streamEngine adapts the two streaming passes to the shared guarded EM
// step. Like the local engine it has no simulated cluster.
type streamEngine struct {
	src  matrix.RowSource
	p    *partial
	sums jobSums
}

func (e *streamEngine) prepared(*emDriver) {}

func (e *streamEngine) pass(em *emDriver) (jobSums, error) {
	// Consolidated YtX/XtX/ΣX in one sequential scan.
	p := e.p
	p.reset()
	if err := e.src.Scan(func(i int, row matrix.SparseVector) error {
		p.add(p.latent(row, em, true), p.xi)
		return nil
	}); err != nil {
		return jobSums{}, err
	}
	return p.into(e.sums), nil
}

func (e *streamEngine) solved(*emDriver, *matrix.Dense) {}

func (e *streamEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	var ss3 float64
	p := e.p
	if err := e.src.Scan(func(i int, row matrix.SparseVector) error {
		t, _ := p.ss3Term(p.latent(row, em, true), cNew, true)
		ss3 += t
		return nil
	}); err != nil {
		return 0, err
	}
	return ss3, nil
}
