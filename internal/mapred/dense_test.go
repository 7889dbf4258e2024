package mapred

import (
	"fmt"
	"testing"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

// denseVecJob is a miniature YtXJob: int records scatter d-wide vector
// partials over a small key range (with one wide d²-style key at -1 and a
// Combine merging in-task duplicates), so it exercises every dense-path
// feature at once — negative MinKey, WideKeys, in-task merges, and the
// vector codec.
func denseVecJob(keys, d int) Job[int, int, []float64, []float64] {
	return Job[int, int, []float64, []float64]{
		Name: "denseVec",
		NewMapper: func(task int) Mapper[int, int, []float64] {
			return MapperFunc[int, int, []float64](func(rec int, out Emitter[int, []float64]) {
				v := make([]float64, d)
				for i := range v {
					v[i] = float64(rec*d + i + 1)
				}
				out.Emit(rec%keys, v)
				wide := make([]float64, d*d)
				for i := range wide {
					wide[i] = float64(rec + i)
				}
				out.Emit(-1, wide)
				out.AddOps(int64(d + d*d))
			})
		},
		Combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		Reduce: func(k int, vs [][]float64, o Ops) []float64 {
			out := make([]float64, len(vs[0]))
			for _, v := range vs {
				matrix.AXPY(1, v, out)
				o.AddOps(int64(len(v)))
			}
			return out
		},
		InputBytes:  func(int) int64 { return 16 },
		KeyBytes:    BytesOfInt,
		ValueBytes:  BytesOfVec,
		ResultBytes: BytesOfVec,
		Dense:       &DenseSpec{MinKey: -1, Keys: keys + 1, Width: d, WideKeys: map[int]int{-1: d * d}},
	}
}

// denseScalarJob is a miniature meanJob: scalar values over a dense range.
func denseScalarJob(keys int) Job[int, int, float64, float64] {
	return Job[int, int, float64, float64]{
		Name: "denseScalar",
		NewMapper: func(task int) Mapper[int, int, float64] {
			return MapperFunc[int, int, float64](func(rec int, out Emitter[int, float64]) {
				out.Emit(rec%keys, float64(rec)+0.5)
				out.AddOps(1)
			})
		},
		Combine: func(a, b float64) float64 { return a + b },
		Reduce: func(k int, vs []float64, o Ops) float64 {
			var s float64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		InputBytes: func(int) int64 { return 16 },
		KeyBytes:   BytesOfInt,
		ValueBytes: BytesOfFloat64,
		Dense:      &DenseSpec{MinKey: 0, Keys: keys, Width: 1},
	}
}

func denseTestPlans() map[string]*cluster.FaultPlan {
	return map[string]*cluster.FaultPlan{
		"fault-free": nil,
		"failures":   {Seed: 7, TaskFailureRate: 0.25},
		"node-loss":  {Seed: 11, NodeLossRate: 0.2, TaskFailureRate: 0.1},
		"stragglers": {Seed: 13, StragglerRate: 0.3},
		"speculative": {
			Seed: 17, StragglerRate: 0.3, SpeculativeExecution: true,
			TaskFailureRate: 0.15,
		},
		"corruption": {Seed: 19, CorruptionRate: 0.1, TaskFailureRate: 0.1},
	}
}

// TestDenseMatchesGenericVec pins the slab store to the map store: for every
// fault plan, a DenseSpec job must produce bit-identical results AND
// bit-identical cluster metrics (every simulated-time charge, every recovery
// and corruption counter) to the same job with Dense = nil.
func TestDenseMatchesGenericVec(t *testing.T) {
	input := make([]int, 300)
	for i := range input {
		input[i] = i
	}
	for name, plan := range denseTestPlans() {
		t.Run(name, func(t *testing.T) {
			gen := testEngine()
			gen.Faults = plan
			fast := testEngine()
			fast.Faults = plan
			genJob := denseVecJob(37, 4)
			genJob.Dense = nil

			wantRes, wantErr := Run(gen, genJob, input)
			gotRes, gotErr := Run(fast, denseVecJob(37, 4), input)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: map store %v, slab store %v", wantErr, gotErr)
			}
			if wantErr == nil {
				if len(gotRes) != len(wantRes) {
					t.Fatalf("key count: map store %d, slab store %d", len(wantRes), len(gotRes))
				}
				for k, wv := range wantRes {
					gv, ok := gotRes[k]
					if !ok || len(gv) != len(wv) {
						t.Fatalf("key %d: map store %v, slab store %v", k, wv, gv)
					}
					for i := range wv {
						if gv[i] != wv[i] {
							t.Fatalf("key %d[%d]: map store %v, slab store %v (not bit-identical)", k, i, wv[i], gv[i])
						}
					}
				}
			}
			if wm, gm := gen.Cluster.Metrics(), fast.Cluster.Metrics(); wm != gm {
				t.Fatalf("metrics diverge:\n map store  %+v\n slab store %+v", wm, gm)
			}
		})
	}
}

// TestDenseMatchesGenericScalar is the float64-codec differential.
func TestDenseMatchesGenericScalar(t *testing.T) {
	input := make([]int, 500)
	for i := range input {
		input[i] = i
	}
	for name, plan := range denseTestPlans() {
		t.Run(name, func(t *testing.T) {
			gen := testEngine()
			gen.Faults = plan
			fast := testEngine()
			fast.Faults = plan
			genJob := denseScalarJob(101)
			genJob.Dense = nil

			wantRes, wantErr := Run(gen, genJob, input)
			gotRes, gotErr := Run(fast, denseScalarJob(101), input)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: map store %v, slab store %v", wantErr, gotErr)
			}
			if wantErr == nil {
				if len(gotRes) != len(wantRes) {
					t.Fatalf("key count: map store %d, slab store %d", len(wantRes), len(gotRes))
				}
				for k, wv := range wantRes {
					if gv := gotRes[k]; gv != wv {
						t.Fatalf("key %d: map store %v, slab store %v", k, wv, gv)
					}
				}
			}
			if wm, gm := gen.Cluster.Metrics(), fast.Cluster.Metrics(); wm != gm {
				t.Fatalf("metrics diverge:\n map store  %+v\n slab store %+v", wm, gm)
			}
		})
	}
}

// TestDenseFailedAttemptReset forces map-attempt failures and checks the
// slab rewind: a retry must reproduce exactly the payload a fresh attempt
// would, or the commit/consume digest handshake (and the result) breaks.
// FailedAttempts > 0 asserts the reset path actually ran.
func TestDenseFailedAttemptReset(t *testing.T) {
	input := make([]int, 200)
	for i := range input {
		input[i] = i
	}
	plan := &cluster.FaultPlan{Seed: 23, TaskFailureRate: 0.3, MaxAttempts: 8}
	gen := testEngine()
	gen.Faults = plan
	fast := testEngine()
	fast.Faults = plan
	genJob := denseVecJob(11, 3)
	genJob.Dense = nil

	wantRes, err := Run(gen, genJob, input)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := Run(fast, denseVecJob(11, 3), input)
	if err != nil {
		t.Fatal(err)
	}
	m := fast.Cluster.Metrics()
	if m.FailedAttempts == 0 {
		t.Fatal("fault plan injected no failures; the reset path was not exercised")
	}
	for k, wv := range wantRes {
		gv := gotRes[k]
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("key %d[%d]: map store %v, slab store %v after retries", k, i, wv[i], gv[i])
			}
		}
	}
	if wm := gen.Cluster.Metrics(); wm != m {
		t.Fatalf("metrics diverge under retries:\n map store  %+v\n slab store %+v", wm, m)
	}
}

// projStyleJob mimics the rsvd projection job: one unique key per record, no
// Combine, Reduce returning vs[0] — the shape whose results alias slab rows.
func projStyleJob(n, d int) Job[int, int, []float64, []float64] {
	return Job[int, int, []float64, []float64]{
		Name: "denseProj",
		NewMapper: func(task int) Mapper[int, int, []float64] {
			return MapperFunc[int, int, []float64](func(rec int, out Emitter[int, []float64]) {
				v := make([]float64, d)
				for i := range v {
					v[i] = float64(rec) + float64(i)/8
				}
				out.Emit(rec, v)
				out.AddOps(int64(d))
			})
		},
		Reduce:      func(_ int, vs [][]float64, _ Ops) []float64 { return vs[0] },
		KeyBytes:    BytesOfInt,
		ValueBytes:  BytesOfVec,
		ResultBytes: BytesOfVec,
		Dense:       &DenseSpec{MinKey: 0, Keys: n, Width: d},
	}
}

// TestDenseSlabReuseAliasing pins the pooled-slab lifetime contract: a
// second Run on the same engine reuses the first Run's slabs, so the first
// result's vectors are views that the second Run overwrites. Drivers copy
// before the next Run (all callers do); this test asserts both the reuse
// (pointer identity — the regression would be a silent per-Run reallocation)
// and the correctness of the second result.
func TestDenseSlabReuseAliasing(t *testing.T) {
	const n, d = 64, 5
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	e := testEngine()
	job := projStyleJob(n, d)

	first, err := Run(e, job, input)
	if err != nil {
		t.Fatal(err)
	}
	firstView := first[0]
	firstVal := firstView[0]

	second, err := Run(e, job, input)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0][0] != &firstView[0] {
		t.Fatal("second Run did not reuse the first Run's slab row for key 0 — slab pooling regressed")
	}
	if second[0][0] != firstVal {
		t.Fatalf("second Run corrupted key 0: got %v want %v", second[0][0], firstVal)
	}
	for k, v := range second {
		want := float64(k)
		if v[0] != want {
			t.Fatalf("second Run key %d = %v, want %v", k, v[0], want)
		}
	}
}

// TestDenseEmitterZeroAllocs is the allocation gate of the tentpole: with a
// warm slab, a full attempt cycle (reset + emits, including in-task merges)
// must allocate nothing.
func TestDenseEmitterZeroAllocs(t *testing.T) {
	const keys, d = 40, 6
	spec := &DenseSpec{MinKey: -1, Keys: keys + 1, Width: d, WideKeys: map[int]int{-1: d * d}}
	slab := new(denseSlab)
	slab.prepare(spec)
	em := &denseEmitter[[]float64]{
		name: "gate", slab: slab,
		combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		cd: vecCodec,
	}
	v := make([]float64, d)
	wide := make([]float64, d*d)
	attempt := func() {
		em.reset()
		for k := 0; k < keys; k++ {
			em.Emit(k, v)
			em.Emit(k, v) // duplicate: exercises the merge path
		}
		em.Emit(-1, wide)
		em.AddOps(1)
	}
	attempt() // warm the slab so claim never grows
	if allocs := testing.AllocsPerRun(100, attempt); allocs != 0 {
		t.Fatalf("dense emitter steady state: %v allocs/op, want 0", allocs)
	}
}

// TestDenseKeyLessMatchesSprintOrder pins the reduce partitioner: int key
// order must reproduce the fmt.Sprint string order exactly, or fault plans
// would draw different per-task coordinates.
func TestDenseKeyLessMatchesSprintOrder(t *testing.T) {
	keys := []int{-1000, -101, -11, -5, -2, -1, 0, 1, 2, 5, 9, 10, 11, 19, 99, 100, 101, 999, 1000}
	for _, a := range keys {
		for _, b := range keys {
			want := fmt.Sprint(a) < fmt.Sprint(b)
			if got := denseKeyLess(a, b); got != want {
				t.Fatalf("denseKeyLess(%d, %d) = %v, fmt.Sprint order says %v", a, b, got, want)
			}
		}
	}
}

// TestDensePanics pins the misuse guards: out-of-range keys and duplicate
// emits without a Combine must fail loudly, not corrupt accounting.
func TestDensePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	spec := &DenseSpec{MinKey: 0, Keys: 4, Width: 2}
	slab := new(denseSlab)
	slab.prepare(spec)
	em := &denseEmitter[[]float64]{name: "guard", slab: slab, cd: vecCodec}
	mustPanic("out-of-range", func() { em.Emit(9, []float64{1, 2}) })
	mustPanic("over-wide", func() { em.Emit(0, []float64{1, 2, 3}) })
	em.Emit(1, []float64{1, 2})
	mustPanic("dup-no-combine", func() { em.Emit(1, []float64{3, 4}) })
}

// orderMapper emits, from Cleanup, one value per key for its task, falling
// as the task index grows, so task order is not value order.
type orderMapper struct{ task, keys int }

func (m *orderMapper) Map(int, Emitter[int, float64]) {}

func (m *orderMapper) Cleanup(out Emitter[int, float64]) {
	for k := 0; k < m.keys; k++ {
		out.Emit(k, float64(-10*m.task-k))
	}
}

// TestReduceValueOrder pins the order of the values Reduce receives on both
// stores: map-task order, then emission order. The map store's job emits
// each key several times per task with no Combine; the slab store's job
// emits each key once per task. Values fall in that order, so a store that
// sorted them, or gathered tasks in another order, would fail.
func TestReduceValueOrder(t *testing.T) {
	const splits, keys = 4, 3
	input := make([]int, 12) // three records per map task
	for i := range input {
		input[i] = i
	}
	copyValues := func(_ int, vs []float64, _ Ops) []float64 { return append([]float64(nil), vs...) }
	mapJob := Job[int, int, float64, []float64]{
		Name: "order-map",
		NewMapper: func(int) Mapper[int, int, float64] {
			return MapperFunc[int, int, float64](func(rec int, out Emitter[int, float64]) {
				out.Emit(rec%keys, float64(-10*rec))
				out.Emit(rec%keys, float64(-10*rec-1))
			})
		},
		Reduce: copyValues,
	}
	slabJob := Job[int, int, float64, []float64]{
		Name:      "order-slab",
		NewMapper: func(task int) Mapper[int, int, float64] { return &orderMapper{task: task, keys: keys} },
		Reduce:    copyValues,
		Dense:     &DenseSpec{MinKey: 0, Keys: keys, Width: 1},
	}
	want := map[string]map[int][]float64{"order-map": {}, "order-slab": {}}
	for _, rec := range input { // records ascend through the tasks' splits
		k := rec % keys
		want["order-map"][k] = append(want["order-map"][k], float64(-10*rec), float64(-10*rec-1))
	}
	for task := 0; task < splits; task++ {
		for k := 0; k < keys; k++ {
			want["order-slab"][k] = append(want["order-slab"][k], float64(-10*task-k))
		}
	}
	for _, plan := range []*cluster.FaultPlan{nil, {Seed: 29, TaskFailureRate: 0.3, MaxAttempts: 12}} {
		for _, job := range []Job[int, int, float64, []float64]{mapJob, slabJob} {
			e := testEngine()
			e.Splits = splits
			e.Faults = plan
			got, err := Run(e, job, input)
			if err != nil {
				t.Fatalf("%s: %v", job.Name, err)
			}
			for k, wv := range want[job.Name] {
				if fmt.Sprint(got[k]) != fmt.Sprint(wv) {
					t.Errorf("%s (faults %v): key %d got values %v, want %v", job.Name, plan != nil, k, got[k], wv)
				}
			}
		}
	}
}
