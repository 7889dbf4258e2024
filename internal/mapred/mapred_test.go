package mapred

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

func testEngine() *Engine {
	cfg := cluster.DefaultConfig()
	return NewEngine(cluster.MustNew(cfg))
}

// wordCount is the canonical MapReduce smoke test.
func wordCountJob() Job[string, string, int64, int64] {
	return Job[string, string, int64, int64]{
		Name: "wordcount",
		NewMapper: func(task int) Mapper[string, string, int64] {
			return MapperFunc[string, string, int64](func(line string, out Emitter[string, int64]) {
				for _, w := range strings.Fields(line) {
					out.Emit(w, 1)
				}
			})
		},
		Combine: func(a, b int64) int64 { return a + b },
		Reduce: func(k string, vs []int64, _ Ops) int64 {
			var s int64
			for _, v := range vs {
				s += v
			}
			return s
		},
		InputBytes:  func(s string) int64 { return int64(len(s)) },
		KeyBytes:    BytesOfString,
		ValueBytes:  func(int64) int64 { return 8 },
		ResultBytes: func(int64) int64 { return 8 },
	}
}

func TestWordCount(t *testing.T) {
	e := testEngine()
	input := []string{"a b a", "b c", "a"}
	got, err := Run(e, wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d want %d", k, got[k], v)
		}
	}
}

// TestReducersGovernScheduling pins the fix for Engine.Reducers being pure
// accounting: keys must be partitioned into Reducers reduce tasks, so no
// more than Reducers Reduce calls run concurrently.
func TestReducersGovernScheduling(t *testing.T) {
	var inFlight, maxInFlight int64
	var mu sync.Mutex
	job := Job[int, int, int64, int64]{
		Name: "width",
		NewMapper: func(int) Mapper[int, int, int64] {
			return MapperFunc[int, int, int64](func(v int, out Emitter[int, int64]) {
				out.Emit(v, int64(v))
			})
		},
		Reduce: func(k int, vs []int64, _ Ops) int64 {
			cur := atomic.AddInt64(&inFlight, 1)
			mu.Lock()
			if cur > maxInFlight {
				maxInFlight = cur
			}
			mu.Unlock()
			var s int64
			for _, v := range vs {
				s += v
			}
			atomic.AddInt64(&inFlight, -1)
			return s
		},
	}
	input := make([]int, 64)
	for i := range input {
		input[i] = i
	}
	e := testEngine()
	e.Reducers = 2
	got, err := Run(e, job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("got %d keys", len(got))
	}
	for k, v := range got {
		if v != int64(k) {
			t.Fatalf("result[%d] = %d", k, v)
		}
	}
	if maxInFlight > 2 {
		t.Fatalf("observed %d concurrent reducers, configured 2", maxInFlight)
	}
	log := e.Cluster.PhaseLog()
	if reduce := log[len(log)-1]; reduce.Tasks != 2 {
		t.Fatalf("reduce phase charged %d tasks, want 2", reduce.Tasks)
	}
}

func TestRunChargesPhases(t *testing.T) {
	e := testEngine()
	if _, err := Run(e, wordCountJob(), []string{"x y z"}); err != nil {
		t.Fatal(err)
	}
	m := e.Cluster.Metrics()
	if m.Phases != 2 {
		t.Fatalf("phases = %d, want map+reduce", m.Phases)
	}
	if m.ShuffleBytes == 0 || m.DiskBytes == 0 || m.SimSeconds <= 0 {
		t.Fatalf("metrics not charged: %+v", m)
	}
	log := e.Cluster.PhaseLog()
	if log[0].Name != "wordcount/map" || log[1].Name != "wordcount/reduce" {
		t.Fatalf("phase names %q %q", log[0].Name, log[1].Name)
	}
}

func TestCombinerReducesShuffleBytes(t *testing.T) {
	input := []string{"a a a a a a a a", "a a a a a a a a"}
	withJob := wordCountJob()

	e1 := testEngine()
	e1.Splits = 2
	if _, err := Run(e1, withJob, input); err != nil {
		t.Fatal(err)
	}
	withCombiner := e1.Cluster.Metrics().ShuffleBytes

	noJob := wordCountJob()
	noJob.Combine = nil
	e2 := testEngine()
	e2.Splits = 2
	if _, err := Run(e2, noJob, input); err != nil {
		t.Fatal(err)
	}
	without := e2.Cluster.Metrics().ShuffleBytes

	if withCombiner >= without {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d", withCombiner, without)
	}
	// 2 map tasks, each emits one combined pair for "a": 2*(1+8) bytes.
	if withCombiner != 2*(1+8) {
		t.Fatalf("combined shuffle bytes = %d", withCombiner)
	}
	// 16 raw pairs without combiner.
	if without != 16*(1+8) {
		t.Fatalf("raw shuffle bytes = %d", without)
	}
}

// statefulMapper accumulates a per-task sum and emits once in Cleanup,
// exercising the paper's stateful in-mapper combiner pattern.
type statefulMapper struct{ sum int64 }

func (m *statefulMapper) Map(rec int64, out Emitter[string, int64]) {
	m.sum += rec
	out.AddOps(1)
}

func (m *statefulMapper) Cleanup(out Emitter[string, int64]) {
	out.Emit("total", m.sum)
}

func statefulJob() Job[int64, string, int64, int64] {
	return Job[int64, string, int64, int64]{
		Name:      "stateful",
		NewMapper: func(task int) Mapper[int64, string, int64] { return &statefulMapper{} },
		Reduce: func(k string, vs []int64, o Ops) int64 {
			var s int64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		KeyBytes:   BytesOfString,
		ValueBytes: func(int64) int64 { return 8 },
	}
}

func TestStatefulMapperEmitsOncePerTask(t *testing.T) {
	e := testEngine()
	e.Splits = 4
	input := make([]int64, 100)
	for i := range input {
		input[i] = int64(i + 1)
	}
	got, err := Run(e, statefulJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	if got["total"] != 5050 {
		t.Fatalf("total = %d", got["total"])
	}
	// 4 tasks x 1 pair x (5 key bytes + 8 value bytes).
	if sh := e.Cluster.Metrics().ShuffleBytes; sh != 4*13 {
		t.Fatalf("shuffle bytes = %d", sh)
	}
	// Ops charged: 100 map ops + 4 reduce ops.
	if ops := e.Cluster.Metrics().ComputeOps; ops != 104 {
		t.Fatalf("compute ops = %d", ops)
	}
}

// TestFailureInjectionRetriesAndStillCorrect covers task-attempt failures:
// failed attempts are retried, the result is exact, Tasks stays the useful
// task count, and the retries land in the recovery accounting.
func TestFailureInjectionRetriesAndStillCorrect(t *testing.T) {
	e := testEngine()
	e.Faults = &cluster.FaultPlan{Seed: 1234, TaskFailureRate: 0.5}
	e.Splits = 8
	e.MaxAttempts = 12 // 0.5^12 per task: terminal failure effectively off
	input := make([]int64, 64)
	for i := range input {
		input[i] = 1
	}
	got, err := Run(e, statefulJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	if got["total"] != 64 {
		t.Fatalf("total = %d with failures", got["total"])
	}
	log := e.Cluster.PhaseLog()
	if log[0].Tasks != 8 {
		t.Fatalf("map tasks = %d, want the 8 useful tasks", log[0].Tasks)
	}
	if log[0].FailedAttempts == 0 {
		t.Fatal("expected retried attempts at 50% failure rate")
	}
	if log[0].RecomputedOps == 0 {
		t.Fatal("failed attempts did not charge recomputed ops")
	}
	m := e.Cluster.Metrics()
	if m.FailedAttempts != log[0].FailedAttempts+log[1].FailedAttempts {
		t.Fatalf("metrics failed=%d, phases %d+%d",
			m.FailedAttempts, log[0].FailedAttempts, log[1].FailedAttempts)
	}
	if m.RecoverySeconds <= 0 {
		t.Fatal("recovery time not charged")
	}
}

// TestTerminalFailureReturnsError pins the silent-success fix: when every
// attempt of a task fails, Run must surface ErrTaskFailed instead of keeping
// the last attempt's output.
func TestTerminalFailureReturnsError(t *testing.T) {
	e := testEngine()
	e.Faults = &cluster.FaultPlan{Seed: 0x4D52, TaskFailureRate: 1}
	e.MaxAttempts = 3
	e.Splits = 2
	_, err := Run(e, statefulJob(), []int64{5, 7})
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v, want ErrTaskFailed", err)
	}
	// The doomed attempts still burned cluster resources.
	log := e.Cluster.PhaseLog()
	if len(log) != 1 {
		t.Fatalf("aborted job charged %d phases, want the map phase only", len(log))
	}
	if log[0].FailedAttempts != 2*3 {
		t.Fatalf("failed attempts = %d, want 2 tasks x 3 attempts", log[0].FailedAttempts)
	}
}

// TestReducePhaseRetries verifies fault injection reaches reduce tasks,
// which the original implementation never failed.
func TestReducePhaseRetries(t *testing.T) {
	e := testEngine()
	e.Faults = &cluster.FaultPlan{Seed: 5, TaskFailureRate: 0.6, MaxAttempts: 20}
	e.Reducers = 8
	input := []string{"a b c d e f g h", "a b c d", "e f g h"}
	got, err := Run(e, wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 2 || got["h"] != 2 {
		t.Fatalf("wrong counts under reduce failures: %v", got)
	}
	log := e.Cluster.PhaseLog()
	reduce := log[len(log)-1]
	if reduce.FailedAttempts == 0 {
		t.Fatal("no reduce attempt failed at 60% failure rate")
	}
	if reduce.Tasks != 8 {
		t.Fatalf("reduce tasks = %d, want 8 useful tasks", reduce.Tasks)
	}
}

// TestNodeLossRerunsCompletedMaps pins the Hadoop semantics: map outputs on
// a dead node are gone, so the completed map tasks it hosted re-run.
func TestNodeLossRerunsCompletedMaps(t *testing.T) {
	e := testEngine()
	e.Faults = &cluster.FaultPlan{Seed: 1, NodeLossRate: 1} // every node dies
	e.Splits = 8
	input := make([]int64, 32)
	for i := range input {
		input[i] = 1
	}
	got, err := Run(e, statefulJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	if got["total"] != 32 {
		t.Fatalf("total = %d after node loss", got["total"])
	}
	log := e.Cluster.PhaseLog()
	if log[0].FailedAttempts != 8 {
		t.Fatalf("failed attempts = %d, want all 8 map outputs lost", log[0].FailedAttempts)
	}
	// The re-run repeats the full map work: one op per record.
	if log[0].RecomputedOps != 32 {
		t.Fatalf("recomputed ops = %d, want 32", log[0].RecomputedOps)
	}
}

// TestSpeculativeExecution covers straggler handling both ways: speculative
// backup copies are counted and charged, and without speculation the
// straggler's serial slack is charged instead.
func TestSpeculativeExecution(t *testing.T) {
	input := make([]int64, 32)
	for i := range input {
		input[i] = 1
	}

	spec := testEngine()
	spec.Faults = &cluster.FaultPlan{Seed: 9, StragglerRate: 1, SpeculativeExecution: true}
	spec.Splits = 4
	if _, err := Run(spec, statefulJob(), input); err != nil {
		t.Fatal(err)
	}
	log := spec.Cluster.PhaseLog()
	if log[0].SpeculativeTasks != 4 {
		t.Fatalf("speculative tasks = %d, want one backup per map task", log[0].SpeculativeTasks)
	}
	if log[0].StragglerOps != 0 {
		t.Fatal("speculation must absorb straggler slack")
	}

	slow := testEngine()
	slow.Faults = &cluster.FaultPlan{Seed: 9, StragglerRate: 1, StragglerFactor: 4}
	slow.Splits = 4
	if _, err := Run(slow, statefulJob(), input); err != nil {
		t.Fatal(err)
	}
	log = slow.Cluster.PhaseLog()
	if log[0].SpeculativeTasks != 0 {
		t.Fatal("speculation off but backups launched")
	}
	// 32 map ops, each task straggling 4x slower: 3 extra op-times of slack.
	if log[0].StragglerOps != 3*32 {
		t.Fatalf("straggler ops = %d, want %d", log[0].StragglerOps, 3*32)
	}
	if slow.Cluster.Metrics().RecoverySeconds <= 0 {
		t.Fatal("straggler slack not priced")
	}
}

// mapExecCounts runs the stateful job and returns how many times the mapper
// of each task executed (attempts = failures + 1), which identifies the
// exact attempt set that failed.
func mapExecCounts(t *testing.T, seed uint64) []int64 {
	t.Helper()
	const splits = 8
	counts := make([]int64, splits)
	e := testEngine()
	e.Faults = &cluster.FaultPlan{Seed: seed, TaskFailureRate: 0.4}
	e.Splits = splits
	e.MaxAttempts = 16
	job := statefulJob()
	base := job.NewMapper
	job.NewMapper = func(task int) Mapper[int64, string, int64] {
		atomic.AddInt64(&counts[task], 1)
		return base(task)
	}
	input := make([]int64, 64)
	for i := range input {
		input[i] = 1
	}
	if _, err := Run(e, job, input); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestFailureSeedReproducible pins that failure decisions are derived per
// (job, phase, task, attempt) from the fault plan's seed, not drawn from a
// shared RNG stream: the same seed must fail the identical per-task attempt
// set on every run, regardless of goroutine scheduling.
func TestFailureSeedReproducible(t *testing.T) {
	a := mapExecCounts(t, 77)
	b := mapExecCounts(t, 77)
	var retried bool
	for task := range a {
		if a[task] != b[task] {
			t.Fatalf("task %d ran %d vs %d attempts with the same seed", task, a[task], b[task])
		}
		if a[task] > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("seed 77 injected no failures; test proves nothing")
	}
	c := mapExecCounts(t, 78)
	same := true
	for task := range a {
		if a[task] != c[task] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical attempt set")
	}
}

// TestFaultFreeRunsChargeNoRecovery guards the cost model: without a fault
// plan, every recovery metric stays exactly zero.
func TestFaultFreeRunsChargeNoRecovery(t *testing.T) {
	e := testEngine()
	if _, err := Run(e, wordCountJob(), []string{"a b", "c"}); err != nil {
		t.Fatal(err)
	}
	m := e.Cluster.Metrics()
	if m.FailedAttempts != 0 || m.RecomputedOps != 0 || m.SpeculativeTasks != 0 || m.RecoverySeconds != 0 {
		t.Fatalf("fault-free run charged recovery: %+v", m)
	}
}

func TestEmptyInput(t *testing.T) {
	e := testEngine()
	got, err := Run(e, wordCountJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestMissingMapperOrReducer(t *testing.T) {
	e := testEngine()
	bad := wordCountJob()
	bad.NewMapper = nil
	if _, err := Run(e, bad, []string{"x"}); err == nil {
		t.Fatal("expected error for nil mapper")
	}
	bad2 := wordCountJob()
	bad2.Reduce = nil
	if _, err := Run(e, bad2, []string{"x"}); err == nil {
		t.Fatal("expected error for nil reducer")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	input := []string{"q w e r t y", "q w e", "q"}
	r1, err := Run(testEngine(), wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testEngine(), wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r1 {
		if r2[k] != v {
			t.Fatalf("nondeterministic result for %q", k)
		}
	}
}

// Matrix-valued job: emit per-row outer products, reduce by summation —
// the shape of the paper's YtX job.
func TestMatrixValuedJob(t *testing.T) {
	rows := []matrix.SparseVector{
		{Len: 3, Indices: []int{0, 2}, Values: []float64{1, 2}},
		{Len: 3, Indices: []int{1}, Values: []float64{3}},
	}
	job := Job[matrix.SparseVector, string, *matrix.Dense, *matrix.Dense]{
		Name: "gram",
		NewMapper: func(task int) Mapper[matrix.SparseVector, string, *matrix.Dense] {
			return MapperFunc[matrix.SparseVector, string, *matrix.Dense](
				func(r matrix.SparseVector, out Emitter[string, *matrix.Dense]) {
					p := matrix.NewDense(3, 3)
					d := r.Dense()
					matrix.OuterAdd(p, d, d)
					out.Emit("gram", p)
					out.AddOps(int64(r.NNZ() * r.NNZ()))
				})
		},
		Combine: func(a, b *matrix.Dense) *matrix.Dense {
			a.AddInPlace(b)
			return a
		},
		Reduce: func(k string, vs []*matrix.Dense, _ Ops) *matrix.Dense {
			sum := matrix.NewDense(3, 3)
			for _, v := range vs {
				sum.AddInPlace(v)
			}
			return sum
		},
		KeyBytes:    BytesOfString,
		ValueBytes:  BytesOfDense,
		ResultBytes: BytesOfDense,
	}
	e := testEngine()
	got, err := Run(e, job, rows)
	if err != nil {
		t.Fatal(err)
	}
	g := got["gram"]
	want := matrix.NewDenseFromRows([][]float64{{1, 0, 2}, {0, 9, 0}, {2, 0, 4}})
	if g.MaxAbsDiff(want) != 0 {
		t.Fatalf("gram = %v", g)
	}
}

func TestSizeHelpers(t *testing.T) {
	if BytesOfVec(make([]float64, 3)) != 8+24 {
		t.Fatal("BytesOfVec")
	}
	if BytesOfDense(matrix.NewDense(2, 2)) != 16+32 {
		t.Fatal("BytesOfDense")
	}
	if BytesOfDense(nil) != 8 {
		t.Fatal("BytesOfDense nil")
	}
	sv := matrix.SparseVector{Len: 10, Indices: []int{1, 2}, Values: []float64{1, 1}}
	if BytesOfSparseVec(sv) != 16+32 {
		t.Fatal("BytesOfSparseVec")
	}
	if BytesOfString("abc") != 3 || BytesOfInt(7) != 8 || BytesOfFloat64(1) != 8 {
		t.Fatal("scalar sizes")
	}
	sp := matrix.NewSparse(2, 2)
	if BytesOfSparse(sp) != 24+sp.SizeBytes() {
		t.Fatal("BytesOfSparse")
	}
	if BytesOfSparse(nil) != 8 {
		t.Fatal("BytesOfSparse nil")
	}
}

// Property: the engine computes the same word counts as a sequential
// reference, for random inputs, split counts, and failure rates.
func TestWordCountProperty(t *testing.T) {
	f := func(seed uint16, nLines uint8, splits uint8, chaos bool) bool {
		rng := matrix.NewRNG(uint64(seed))
		words := []string{"a", "b", "c", "d", "e"}
		var lines []string
		want := map[string]int64{}
		for i := 0; i < int(nLines%40)+1; i++ {
			var line string
			for w := 0; w < rng.Intn(6)+1; w++ {
				word := words[rng.Intn(len(words))]
				want[word]++
				line += word + " "
			}
			lines = append(lines, line)
		}
		e := testEngine()
		e.Splits = int(splits%16) + 1
		if chaos {
			e.Faults = &cluster.FaultPlan{Seed: uint64(seed) * 3, TaskFailureRate: 0.3}
			// Bound terminal failures out of existence (0.3^12 per task) so
			// the property stays about correctness under retries.
			e.MaxAttempts = 12
		}
		got, err := Run(e, wordCountJob(), lines)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordsCharged(t *testing.T) {
	e := testEngine()
	if _, err := Run(e, wordCountJob(), []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	log := e.Cluster.PhaseLog()
	if log[0].Records != 3 {
		t.Fatalf("map phase records = %d, want 3", log[0].Records)
	}
}
