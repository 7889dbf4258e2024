package ppca

import (
	"sync"
	"testing"

	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
)

// Aliasing audit for sumVec/reduceSumVec against the engine's in-place
// combiner merge:
//
//   - sumVec(a, b) accumulates b INTO a and must never write through b. The
//     combiner holds the first emission for a key by alias and feeds every
//     later emission in as b, so writing through b would corrupt a slice the
//     mapper may still own (the pooled mappers reuse their emission buffers
//     across iterations).
//   - reduceSumVec must return a freshly allocated slice, never an alias of
//     one of its inputs. Job output outlives the shuffle buffers, and the
//     drivers mutate job output in place (em.update scales s.ytx directly).

func TestSumVecDoesNotMutateSecondArgument(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	got := sumVec(a, b)
	if &got[0] != &a[0] {
		t.Fatal("sumVec must accumulate into its first argument")
	}
	for i, want := range []float64{10, 20, 30} {
		if b[i] != want {
			t.Fatalf("sumVec mutated its second argument: %v", b)
		}
	}
}

func TestReduceSumVecReturnsFreshSlice(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}}
	out := reduceSumVec(0, vs, nopOps{})
	if &out[0] == &vs[0][0] || &out[0] == &vs[1][0] {
		t.Fatal("reduceSumVec aliased one of its inputs")
	}
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("reduceSumVec sum wrong: %v", out)
	}
}

// TestReduceSumVecMatchesAXPYLoop holds reduceSumVec's four-value sweep to a
// per-value AXPY loop, bit for bit, at 1–9 values, and its op charge to one
// op per element of every value.
func TestReduceSumVecMatchesAXPYLoop(t *testing.T) {
	rng := matrix.NewRNG(43)
	const d = 13
	for n := 1; n <= 9; n++ {
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = matrix.NormRnd(rng, 1, d).Data
		}
		var ops countOps
		got := reduceSumVec(0, vs, &ops)
		want := make([]float64, d)
		for _, v := range vs {
			matrix.AXPY(1, v, want)
		}
		sameBits(t, "reduceSumVec", got, want)
		if ops != countOps(n*d) {
			t.Fatalf("%d values: charged %d ops, want %d", n, ops, n*d)
		}
	}
}

type nopOps struct{}

func (nopOps) AddOps(int64) {}

type countOps int64

func (c *countOps) AddOps(n int64) { *c += countOps(n) }

// retainMapper emits one shared accumulator slice per task — the in-mapper
// combining pattern — and keeps a reference to it after Cleanup, modelling a
// pooled mapper that will reuse the buffer next iteration. Map tasks run
// concurrently, so every mapper of a job appends to the shared list under
// its lock.
type retainMapper struct {
	acc      []float64
	retained *retainedList
}

type retainedList struct {
	mu   sync.Mutex
	bufs [][]float64
}

func (m *retainMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	for k, j := range row.Indices {
		_ = j
		m.acc[0] += row.Values[k]
	}
}

func (m *retainMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	out.Emit(7, m.acc)
	m.retained.mu.Lock()
	m.retained.bufs = append(m.retained.bufs, m.acc)
	m.retained.mu.Unlock()
}

// TestReducerOutputMutationDoesNotCorruptRetainedEmission runs a real job
// through the engine with sumVec combining and reduceSumVec reducing, then
// mutates the reducer output the way emDriver.update mutates s.ytx — the
// mapper-retained emission buffers must be unaffected.
func TestReducerOutputMutationDoesNotCorruptRetainedEmission(t *testing.T) {
	eng := mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
	var list retainedList
	job := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "alias-audit",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			return &retainMapper{acc: make([]float64, 3), retained: &list}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	input := make([]matrix.SparseVector, 64)
	for i := range input {
		input[i] = matrix.SparseVector{Indices: []int{i % 3}, Values: []float64{1}, Len: 3}
	}
	out, err := mapred.Run(eng, job, input)
	if err != nil {
		t.Fatal(err)
	}
	retained := list.bufs
	if len(retained) == 0 {
		t.Fatal("no emissions retained — job did not run mappers")
	}
	snapshot := make([][]float64, len(retained))
	for i, r := range retained {
		snapshot[i] = append([]float64(nil), r...)
	}
	// Mutate the job output in place, as emDriver.update does with s.ytx.
	for _, v := range out {
		for i := range v {
			v[i] = -1e9
		}
	}
	for i, r := range retained {
		for j := range r {
			if r[j] != snapshot[i][j] {
				t.Fatalf("mutating reducer output corrupted retained mapper emission %d: %v vs %v", i, r, snapshot[i])
			}
		}
	}
}
