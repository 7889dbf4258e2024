package accuracy

import (
	"math"
	"testing"
	"testing/quick"

	"spca/internal/dataset"
	"spca/internal/matrix"
	"spca/internal/parallel"
)

func randomSparse(rng *matrix.RNG, n, dims int, density float64) *matrix.Sparse {
	b := matrix.NewSparseBuilder(dims)
	for i := 0; i < n; i++ {
		var idx []int
		var vals []float64
		for j := 0; j < dims; j++ {
			if rng.Float64() < density {
				idx = append(idx, j)
				vals = append(vals, rng.NormFloat64())
			}
		}
		b.AddRow(idx, vals)
	}
	return b.Build()
}

// bruteErr is Err's definition evaluated with dense matrices:
// Σ|Y − Ŷ| / Σ|Y| with Ŷ = ((Y − 1·Ym)·P)·Cᵀ + 1·Ym.
func bruteErr(y *matrix.Sparse, mean []float64, p, c *matrix.Dense) float64 {
	yc := y.Dense().SubRowVec(mean)
	recon := yc.Mul(p).Mul(c.T())
	var num, den float64
	for i := 0; i < y.R; i++ {
		for j := 0; j < y.C; j++ {
			v := y.At(i, j)
			num += math.Abs(v - (recon.At(i, j) + mean[j]))
			den += math.Abs(v)
		}
	}
	return num / den
}

func TestErrMatchesDenseReconstruction(t *testing.T) {
	rng := matrix.NewRNG(7)
	const n, dims, d = 40, 12, 3
	y := randomSparse(rng, n, dims, 0.4)
	mean := y.ColMeans()
	s := New(y)
	w, _ := matrix.QR(matrix.NormRnd(rng, dims, d))
	cases := map[string][2]*matrix.Dense{
		"P = C":  {w, w},
		"P != C": {matrix.NormRnd(rng, dims, d), matrix.NormRnd(rng, dims, d)},
	}
	for name, pc := range cases {
		got, want := s.Err(mean, pc[0], pc[1]), bruteErr(y, mean, pc[0], pc[1])
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: Err %v, dense reconstruction %v", name, got, want)
		}
	}
}

// TestErrParallelBitIdentical: Err forms each block's images X·Cᵀ with one
// MulBTInto, which splits the block's rows across the pool. At D = 2000 a
// block holds 16 rows, and one row is a whole chunk at d = 8, so the 40 rows
// run as three blocks, each chunked on four workers; the error must equal
// the sequential evaluation bit for bit. The chunked path is also what
// `make race` checks.
func TestErrParallelBitIdentical(t *testing.T) {
	rng := matrix.NewRNG(5)
	const n, dims, d = 40, 2000, 8
	y := randomSparse(rng, n, dims, 0.01)
	mean := y.ColMeans()
	p, c := matrix.NormRnd(rng, dims, d), matrix.NormRnd(rng, dims, d)
	parallel.SetSequential(true)
	seq := New(y).Err(mean, p, c)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	if par := New(y).Err(mean, p, c); par != seq {
		t.Fatalf("parallel Err %v, sequential %v", par, seq)
	}
}

// Property: the error is non-negative and finite.
func TestErrNonNegative(t *testing.T) {
	f := func(seed uint16) bool {
		rng := matrix.NewRNG(uint64(seed) + 555)
		n, dims, d := 10+int(seed)%15, 4+int(seed)%8, 2
		y := randomSparse(rng, n, dims, 0.5)
		s := New(Copy(n, dims, 8, uint64(seed), y.Row))
		e := s.Err(y.ColMeans(), matrix.NormRnd(rng, dims, d), matrix.NormRnd(rng, dims, d))
		return e >= 0 && !math.IsNaN(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestErrSteadyStateAllocs gates the scratch reuse: after the first call,
// Err allocates nothing of its own. Sequential, it allocates nothing at all.
// On two workers (set explicitly, since AllocsPerRun pins GOMAXPROCS to 1)
// only the pool's dispatch allocates, at most two allocations per chunked
// MulBTInto: one per block of rows (16 rows at D = 2000), not one per row.
func TestErrSteadyStateAllocs(t *testing.T) {
	rng := matrix.NewRNG(3)
	for _, c := range []struct {
		name       string
		workers    int
		n, dims, d int
		max        float64
	}{
		{"sequential", 0, 30, 16, 4, 0},
		{"two workers", 2, 40, 2000, 8, 3 * 2},
	} {
		y := randomSparse(rng, c.n, c.dims, 0.3)
		mean := y.ColMeans()
		p, cm := matrix.NormRnd(rng, c.dims, c.d), matrix.NormRnd(rng, c.dims, c.d)
		if c.workers == 0 {
			parallel.SetSequential(true)
		} else {
			parallel.SetWorkers(c.workers)
		}
		s := New(y)
		s.Err(mean, p, cm)
		allocs := testing.AllocsPerRun(20, func() { s.Err(mean, p, cm) })
		parallel.SetSequential(false)
		parallel.SetWorkers(0)
		if allocs > c.max {
			t.Errorf("%s: Err allocated %v times per call, want at most %v", c.name, allocs, c.max)
		}
	}
}

func TestAccuracyOfClamping(t *testing.T) {
	if a := Of(0.1, 0.1); math.Abs(a-1) > 1e-12 {
		t.Fatalf("accuracy at ideal error = %v", a)
	}
	if a := Of(0.1, 0.05); a != 1 {
		t.Fatalf("better-than-ideal should clamp to 1: %v", a)
	}
	if a := Of(0.1, 0.2); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("accuracy at double the ideal error = %v, want 0.5", a)
	}
	if a := Of(0, 0.5); a != 0 {
		t.Fatal("accuracy without ideal error should be 0")
	}
}

func TestRows(t *testing.T) {
	idx := Rows(10, 100, 1)
	if len(idx) != 10 {
		t.Fatalf("want all rows, got %d", len(idx))
	}
	idx = Rows(1000, 50, 1)
	if len(idx) != 50 {
		t.Fatalf("want 50, got %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("sample not sorted/unique")
		}
	}
}

// TestCopyHoldsSampledRows: Copy keeps exactly the rows Rows draws, in order.
func TestCopyHoldsSampledRows(t *testing.T) {
	y := randomSparse(matrix.NewRNG(11), 300, 9, 0.4)
	seed := Seed(42)
	got := Copy(y.R, y.C, SampleRows, seed, y.Row)
	idx := Rows(y.R, SampleRows, seed)
	if got.R != len(idx) || got.C != y.C {
		t.Fatalf("copy is %dx%d, want %dx%d", got.R, got.C, len(idx), y.C)
	}
	for k, i := range idx {
		for j := 0; j < y.C; j++ {
			if got.At(k, j) != y.At(i, j) {
				t.Fatalf("sample row %d differs from input row %d at column %d", k, i, j)
			}
		}
	}
}

var errSink float64

// BenchmarkErr grades a rank-50 model on 256 sampled rows of a Tweets-like
// input with D = 2000, the shape of one EM iteration's error in perfbench's
// fits. Once warm it allocates nothing on the sequential path; on more
// workers only the pool's dispatch of each block's product allocates.
func BenchmarkErr(b *testing.B) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: SampleRows, Cols: 2000, Seed: 1})
	rng := matrix.NewRNG(2)
	mean := y.ColMeans()
	p, c := matrix.NormRnd(rng, y.C, 50), matrix.NormRnd(rng, y.C, 50)
	s := New(y)
	s.Err(mean, p, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errSink = s.Err(mean, p, c)
	}
}

func BenchmarkIdeal(b *testing.B) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 2000, Cols: 500, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Ideal(y, 10, 42)
	}
}
