// Package mapred implements a miniature MapReduce engine in the spirit of
// Hadoop, sufficient to express the paper's sPCA-MapReduce and Mahout-PCA
// jobs: user-defined mappers with setup/cleanup (enabling the paper's
// "stateful combiner" technique), optional associative combiners, reducers,
// composite keys, and exact accounting of map-output/shuffle bytes through
// the simulated cluster.
//
// Execution is real (mappers and reducers run concurrently on a worker pool)
// while time is simulated: the engine charges each phase's compute, shuffle
// and disk traffic to the cluster cost model. Like Hadoop, map output is
// written to disk before being shuffled, so every shuffle byte is also a
// disk byte — this is what gives sPCA its "low disk footprint" advantage.
//
// Fault tolerance follows Hadoop's model, driven by a deterministic
// cluster.FaultPlan: map and reduce attempts that fail are retried up to
// MaxAttempts (then the job fails with ErrTaskFailed), completed map outputs
// on a node that dies before the shuffle are re-executed, and straggling
// attempts either delay their phase or are raced by speculative backup
// copies. Every failure decision is a pure function of the plan's seed and
// the (job, phase, task, attempt) coordinates, so a given seed fails the
// identical attempt set on every run — and because mappers and reducers are
// deterministic, recovery reproduces bit-identical job output.
package mapred

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"spca/internal/cluster"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// Emitter receives key/value pairs from mappers, and lets tasks charge
// arithmetic work to the simulated cluster.
type Emitter[K comparable, V any] interface {
	Emit(key K, value V)
	// AddOps charges n arithmetic operations to the current phase.
	AddOps(n int64)
}

// Mapper processes input records. NewMapper is called once per map task, so
// implementations can keep per-task state (the stateful in-mapper combiner of
// §4.1) and flush it in Cleanup.
type Mapper[I any, K comparable, V any] interface {
	Map(rec I, out Emitter[K, V])
	Cleanup(out Emitter[K, V])
}

// MapperFunc adapts a plain function to a stateless Mapper.
type MapperFunc[I any, K comparable, V any] func(rec I, out Emitter[K, V])

// Map implements Mapper.
func (f MapperFunc[I, K, V]) Map(rec I, out Emitter[K, V]) { f(rec, out) }

// Cleanup implements Mapper (no-op).
func (f MapperFunc[I, K, V]) Cleanup(out Emitter[K, V]) {}

// Job describes one MapReduce job. The byte-size callbacks drive the
// intermediate-data accounting; they must reflect the serialized size of the
// corresponding records.
type Job[I any, K comparable, V any, R any] struct {
	Name      string
	NewMapper func(task int) Mapper[I, K, V]
	// Combine optionally merges two values for the same key before the
	// shuffle (a Hadoop combiner). It must be associative and commutative.
	Combine func(a, b V) V
	// Reduce folds all values for a key into the job output for that key.
	Reduce func(key K, values []V, out Ops) R

	InputBytes  func(I) int64
	KeyBytes    func(K) int64
	ValueBytes  func(V) int64
	ResultBytes func(R) int64

	// Dense selects the slab store for the job's shuffle (see DenseSpec). It
	// only takes effect for jobs keyed by int whose values are []float64 or
	// float64; any other instantiation uses the map store regardless.
	Dense *DenseSpec
}

// Ops lets reducers charge arithmetic work.
type Ops interface{ AddOps(n int64) }

// ErrTaskFailed is returned by Run when some task fails all of its
// MaxAttempts attempts — the terminal job failure Hadoop reports after
// mapred.map.max.attempts is exhausted.
var ErrTaskFailed = errors.New("mapred: task failed after max attempts")

// ErrCorruptPayload re-exports the cluster sentinel for checksum failures on
// this engine's shuffle and reduce-output payloads.
var ErrCorruptPayload = cluster.ErrCorruptPayload

// Engine runs jobs against a simulated cluster.
type Engine struct {
	Cluster *cluster.Cluster
	// Splits is the number of map tasks per job (default: 2x total cores).
	Splits int
	// Reducers is the number of reduce tasks per job (default: total cores).
	Reducers int
	// Faults injects deterministic failures (task attempts, node losses,
	// stragglers) into every job. Nil runs fault-free.
	Faults *cluster.FaultPlan
	// MaxAttempts bounds retries per task (default 4, like Hadoop). A
	// FaultPlan's own MaxAttempts takes precedence when set.
	MaxAttempts int

	mu     sync.Mutex
	jobSeq int64
	slabs  map[slabKey][]*denseSlab
}

// NewEngine returns an engine with Hadoop-like defaults on cl.
func NewEngine(cl *cluster.Cluster) *Engine {
	return &Engine{
		Cluster:     cl,
		Splits:      2 * cl.TotalCores(),
		Reducers:    cl.TotalCores(),
		MaxAttempts: 4,
	}
}

// Broadcast charges shipping bytes of driver state to every worker node,
// as Hadoop's distributed cache does, in one phase named name.
func Broadcast(e *Engine, name string, bytes int64) {
	e.Cluster.RunPhase(cluster.PhaseStats{
		Name:         name,
		ShuffleBytes: bytes * int64(e.Cluster.Config().Nodes),
	})
}

// NumSplits reports how many map tasks Run will use for n input records: the
// configured Splits, clamped to n (at least 1). Callers sizing per-task
// scratch (mapper state reused across jobs) rely on this matching Run's own
// split computation, so both share this function.
func (e *Engine) NumSplits(n int) int {
	splits := e.Splits
	if splits <= 0 {
		splits = 2 * e.Cluster.TotalCores()
	}
	if splits > n && n > 0 {
		splits = n
	}
	if splits == 0 {
		splits = 1
	}
	return splits
}

// Epoch reports the engine's job sequence counter, which salts per-job
// fault decisions (the MapReduce counterpart of rdd.Context.Epoch).
// Checkpoints capture it so a resumed driver draws the exact same faults an
// uninterrupted run would for the remaining jobs.
func (e *Engine) Epoch() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobSeq
}

// SetEpoch restores the job sequence counter from a checkpoint.
func (e *Engine) SetEpoch(seq int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobSeq = seq
}

// plan resolves the effective fault plan for the next job (nil = fault-free)
// and assigns the job its sequence number, which salts the per-job fault
// decisions so repeated jobs with the same name (one per EM iteration) draw
// distinct faults.
func (e *Engine) plan() (*cluster.FaultPlan, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	seq := e.jobSeq
	e.jobSeq++
	if !e.Faults.Enabled() {
		return nil, seq
	}
	return e.Faults, seq
}

// store holds one job's map output in a layout of its own: the map store
// for any job, the slab store for a DenseSpec job. Run owns the rest of the
// job lifecycle and asks the store only for what depends on the layout.
type store[K comparable, V any] interface {
	// emitter returns map task t's Emitter, emptied for a fresh attempt (a
	// retry rewinds the failed attempt's output), and the counter its AddOps
	// charges, reset to zero.
	emitter(t int) (Emitter[K, V], *opsCounter)
	// payload walks task t's output: its modeled wire size and its
	// order-independent checksum.
	payload(t int, kb func(K) int64, vb func(V) int64) (int64, uint64)
	// keys returns every key some task emitted, in no particular order.
	keys() []K
	// reducers readies values for n concurrent reduce tasks.
	reducers(n int)
	// values returns k's values, in map-task order then emission order, to
	// reduce task r. Reduce tasks call it concurrently.
	values(r int, k K) []V
	// release hands pooled storage back once the job's results are dead.
	release()
}

// newStore picks the job's store: the slab store for a DenseSpec job keyed
// by int with []float64 or float64 values, the map store otherwise.
func newStore[I any, K comparable, V, R any](e *Engine, job *Job[I, K, V, R], splits int) (store[K, V], error) {
	var slab any
	var err error
	if job.Dense != nil {
		switch j := any(job).(type) {
		case *Job[I, int, []float64, R]:
			slab, err = newSlabStore(e, j.Name, j.Dense, vecCodec, j.Combine, splits)
		case *Job[I, int, float64, R]:
			slab, err = newSlabStore(e, j.Name, j.Dense, scalarCodec, j.Combine, splits)
		}
	}
	if err != nil {
		return nil, err
	}
	if st, ok := slab.(store[K, V]); ok {
		return st, nil
	}
	return newMapStore[K, V](job.Combine, splits), nil
}

// opsCounter counts the arithmetic a task charges; emitters embed it.
type opsCounter struct{ n int64 }

func (o *opsCounter) AddOps(n int64) { o.n += n }

// mapStore keeps each map task's output in Go maps, so it takes any key and
// value type.
type mapStore[K comparable, V any] struct {
	tasks   []mapEmitter[K, V]
	grouped map[K][]V // every task's values per key, built once by keys
}

type mapEmitter[K comparable, V any] struct {
	opsCounter
	pairs map[K][]V      // no Combine: values per key in emission order
	vals  map[K]V        // Combine: one merged value per key, no slice boxing
	merge func(a, b V) V // nil: append values
}

func newMapStore[K comparable, V any](combine func(a, b V) V, splits int) *mapStore[K, V] {
	s := &mapStore[K, V]{tasks: make([]mapEmitter[K, V], splits)}
	for t := range s.tasks {
		em := &s.tasks[t]
		em.merge = combine
		if combine != nil {
			em.vals = make(map[K]V)
		} else {
			em.pairs = make(map[K][]V)
		}
	}
	return s
}

func (em *mapEmitter[K, V]) Emit(k K, v V) {
	if em.merge != nil {
		if cur, ok := em.vals[k]; ok {
			em.vals[k] = em.merge(cur, v)
			return
		}
		em.vals[k] = v
		return
	}
	em.pairs[k] = append(em.pairs[k], v)
}

func (s *mapStore[K, V]) emitter(t int) (Emitter[K, V], *opsCounter) {
	em := &s.tasks[t]
	clear(em.pairs)
	clear(em.vals)
	em.n = 0
	return em, &em.opsCounter
}

func (s *mapStore[K, V]) payload(t int, kbf func(K) int64, vbf func(V) int64) (int64, uint64) {
	var total int64
	var dig cluster.PayloadDigest
	for k, vs := range s.tasks[t].pairs {
		kb := kbf(k)
		for _, v := range vs {
			vb := vbf(v)
			total += kb + vb
			dig.Add(kb, vb)
		}
	}
	for k, v := range s.tasks[t].vals {
		kb, vb := kbf(k), vbf(v)
		total += kb + vb
		dig.Add(kb, vb)
	}
	return total, dig.Sum()
}

func (s *mapStore[K, V]) keys() []K {
	s.grouped = make(map[K][]V)
	for t := range s.tasks {
		for k, vs := range s.tasks[t].pairs {
			s.grouped[k] = append(s.grouped[k], vs...)
		}
		for k, v := range s.tasks[t].vals {
			s.grouped[k] = append(s.grouped[k], v)
		}
	}
	keys := make([]K, 0, len(s.grouped))
	for k := range s.grouped {
		keys = append(keys, k)
	}
	return keys
}

func (s *mapStore[K, V]) reducers(int) {}

func (s *mapStore[K, V]) values(_ int, k K) []V { return s.grouped[k] }

func (s *mapStore[K, V]) release() {}

// taskRecord is one task's bookkeeping across its attempts: the fault
// accounting of its phase, and the stamp of the attempt that committed.
type taskRecord struct {
	failed       int64 // failed attempts (including node-loss re-runs)
	wasted       int64 // ops spent by failed attempts and backup copies
	spec         int64 // speculative backup copies launched
	stragglerOps int64 // extra serial op-time of an unmitigated straggler
	exhausted    bool  // every attempt failed: terminal task failure

	att    int    // 1-based attempt that committed the task's output
	ops    int64  // ops the committing attempt charged
	bytes  int64  // modeled wire size of the committed output
	digest uint64 // checksum stamped at commit, re-verified at consume
}

// attempts runs a task's attempts until one survives the plan's failure
// draw, at most maxAtt of them. run executes one attempt and returns the ops
// it charged; walk stamps the committed output with its size and digest. A
// lost attempt's work was really spent, so it is charged as wasted; its
// output is discarded.
func (rec *taskRecord) attempts(plan *cluster.FaultPlan, phase string, task, maxAtt int,
	run func() int64, walk func(task int) (int64, uint64)) {
	for att := 1; att <= maxAtt; att++ {
		ops := run()
		if plan.AttemptFails(phase, task, att) {
			rec.failed++
			rec.wasted += ops
			continue
		}
		rec.att, rec.ops = att, ops
		rec.bytes, rec.digest = walk(task)
		rec.chargeStraggler(plan, phase, task, att, ops)
		return
	}
	rec.exhausted = true
}

// chargeStraggler applies the plan's straggler decision to a committing
// attempt that cost ops: with speculative execution the engine launches a
// backup copy (duplicated work, no tail latency); without it the slow
// attempt's extra serial time delays the phase.
func (rec *taskRecord) chargeStraggler(plan *cluster.FaultPlan, phase string, task, att int, ops int64) {
	if !plan.Straggles(phase, task, att) {
		return
	}
	if plan.SpeculativeExecution {
		rec.spec++
		rec.wasted += ops
		return
	}
	rec.stragglerOps += int64(float64(ops) * (plan.SlowFactor() - 1))
}

// tally folds a phase's task records into its stats — the fault accounting
// and the committed ops — and returns the committed bytes and the first task
// that exhausted its attempts (-1 if none did).
func tally(stats *cluster.PhaseStats, recs []taskRecord) (bytes int64, exhausted int) {
	exhausted = -1
	for t := range recs {
		rec := &recs[t]
		stats.FailedAttempts += rec.failed
		stats.RecomputedOps += rec.wasted
		stats.SpeculativeTasks += rec.spec
		stats.StragglerOps += rec.stragglerOps
		stats.ComputeOps += rec.ops
		bytes += rec.bytes
		if rec.exhausted && exhausted < 0 {
			exhausted = t
		}
	}
	return bytes, exhausted
}

// consume verifies each committed payload of a phase as its reader does: it
// re-runs the walk that stamped the payload at commit and compares. The walk
// digests the entries' modeled key and value sizes and their count, not the
// value bits (see cluster/checksum.go), so a mismatch means an entry was
// added, dropped or resized between commit and consume; a value changed in
// place passes. Then the plan decides whether the payload arrives corrupted;
// each detected corruption re-executes the producing attempt and re-ships
// the payload, up to maxAtt re-fetches. what names task t's payload in the
// error that ends the job.
func consume(stats *cluster.PhaseStats, plan *cluster.FaultPlan, phase string, maxAtt int, recs []taskRecord,
	walk func(t int) (int64, uint64), what func(t int) string) error {
	for t := range recs {
		rec := &recs[t]
		if bytes, digest := walk(t); bytes != rec.bytes || digest != rec.digest {
			stats.CorruptPayloads++
			return fmt.Errorf("%w: %s", ErrCorruptPayload, what(t))
		}
		if !chargeCorruptFetches(stats, plan, phase, t, rec.att, maxAtt, rec.ops, rec.bytes) {
			return fmt.Errorf("%w: %s corrupt after %d re-fetches", ErrCorruptPayload, what(t), maxAtt)
		}
	}
	return nil
}

// chargeCorruptFetches applies the plan's payload-corruption decisions to one
// committed task payload: each corrupted fetch re-executes the producing
// attempt (ops re-charged) and re-ships the payload (bytes re-charged),
// bounded by maxAtt re-fetches. It returns false when every re-fetch came
// back corrupted — the terminal, unrecoverable case.
func chargeCorruptFetches(stats *cluster.PhaseStats, plan *cluster.FaultPlan, phase string, task, att, maxAtt int, ops, bytes int64) bool {
	if plan == nil || plan.CorruptionRate <= 0 {
		return true
	}
	for re := 0; re < maxAtt; re++ {
		if !plan.PayloadCorrupt(phase, task, att+re) {
			return true
		}
		stats.CorruptPayloads++
		stats.ReverifyBytes += bytes
		stats.RecomputedOps += ops
	}
	return false
}

// sizeFns resolves the job's optional key/value size callbacks once per Run,
// so the per-entry accounting loops carry no nil checks. The 8-byte fallbacks
// are capture-free closures, so resolving them allocates nothing.
func (job *Job[I, K, V, R]) sizeFns() (kb func(K) int64, vb func(V) int64) {
	kb, vb = job.KeyBytes, job.ValueBytes
	if kb == nil {
		kb = func(K) int64 { return 8 }
	}
	if vb == nil {
		vb = func(V) int64 { return 8 }
	}
	return kb, vb
}

// resultFn resolves ResultBytes the same way sizeFns resolves the others.
func (job *Job[I, K, V, R]) resultFn() func(R) int64 {
	if job.ResultBytes == nil {
		return func(R) int64 { return 8 }
	}
	return job.ResultBytes
}

// partPayload walks one reduce task's part file: the modeled size of its
// results and the checksum over their (key, result) sizes.
func partPayload[K comparable, R any](kbf func(K) int64, rbf func(R) int64, keys []K, rs []R) (int64, uint64) {
	var total int64
	var dig cluster.PayloadDigest
	for i, k := range keys {
		rb := rbf(rs[i])
		total += rb
		dig.Add(kbf(k), rb)
	}
	return total, dig.Sum()
}

// sortKeys puts keys in the order the reduce partitioner splits: the string
// order of fmt.Sprint, so runs are deterministic regardless of map
// iteration. Int keys (every job's keys but the string-keyed tests') are
// compared by denseKeyLess, which reproduces that order without formatting.
func sortKeys[K comparable](keys []K) {
	if ints, ok := any(keys).([]int); ok {
		sort.Slice(ints, func(i, j int) bool { return denseKeyLess(ints[i], ints[j]) })
		return
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
}

// denseKeyLess orders int keys exactly as fmt.Sprint's string order does,
// without allocating: strconv formats both keys into stack buffers and
// bytes.Compare orders them. Reduce-task partitioning derives from this
// order, so under a FaultPlan the per-(task, attempt) fault draws — and
// hence every recovery charge — depend on it.
func denseKeyLess(a, b int) bool {
	var ab, bb [20]byte
	as := strconv.AppendInt(ab[:0], int64(a), 10)
	bs := strconv.AppendInt(bb[:0], int64(b), 10)
	return bytes.Compare(as, bs) < 0
}

// Run executes the job over the input records and returns the reduce output
// per key. It is the moral equivalent of submitting a job to a Hadoop
// cluster and reading its part files back. Under an active FaultPlan, failed
// map and reduce attempts are retried up to MaxAttempts — re-executed work is
// charged to the recovery metrics — and Run returns ErrTaskFailed if any
// task exhausts its attempts.
func Run[I any, K comparable, V any, R any](e *Engine, job Job[I, K, V, R], input []I) (map[K]R, error) {
	if job.NewMapper == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapred: job %q missing mapper or reducer", job.Name)
	}
	splits := e.NumSplits(len(input))
	st, err := newStore(e, &job, splits)
	if err != nil {
		return nil, err
	}
	defer st.release()
	// Entry poll, before the job draws its sequence number: an interrupted
	// run must not advance the fault cursor for a job it never starts.
	if err := e.Cluster.Interrupted(); err != nil {
		return nil, fmt.Errorf("mapred: job %q: %w", job.Name, err)
	}
	plan, seq := e.plan()
	mapPhase := fmt.Sprintf("%s#%d/map", job.Name, seq)
	maxAtt := plan.Attempts(e.MaxAttempts)
	kbf, vbf := job.sizeFns()
	rbf := job.resultFn()

	// Job span: wraps the map and reduce phase charges so they nest under
	// one node per submitted job in the trace. fail charges the phase a
	// failing job reached (if any), closes the span and returns err.
	tr := e.Cluster.Tracer()
	if tr != nil {
		tr.Begin(job.Name, trace.KindJob,
			trace.I("seq", int64(seq)), trace.I("splits", int64(splits)))
	}
	fail := func(stats *cluster.PhaseStats, err error) (map[K]R, error) {
		if stats != nil {
			e.Cluster.RunPhase(*stats)
		}
		if tr != nil {
			tr.End(trace.I("failed", 1))
		}
		return nil, err
	}

	// ---- Map phase ----
	var inputBytes int64
	if job.InputBytes != nil {
		for _, r := range input {
			inputBytes += job.InputBytes(r)
		}
	}
	mapRecs := make([]taskRecord, splits)
	mapWalk := func(t int) (int64, uint64) { return st.payload(t, kbf, vbf) }
	// Map tasks run on the kernel pool's width. Fault draws are keyed by
	// (phase, task, attempt), so which worker runs a task changes no charge.
	parallel.Tasks(splits, parallel.TaskWorkers(), func(t int) {
		split := input[t*len(input)/splits : (t+1)*len(input)/splits]
		mapRecs[t].attempts(plan, mapPhase, t, maxAtt, func() int64 {
			em, ops := st.emitter(t)
			m := job.NewMapper(t)
			for _, r := range split {
				m.Map(r, em)
			}
			m.Cleanup(em)
			return ops.n
		}, mapWalk)
	})

	// Hadoop node-loss semantics: map output lives on the mapper's local
	// disk until the shuffle reads it, so losing a node loses the completed
	// map outputs it hosted and those tasks must be re-executed. Mappers are
	// deterministic, so the re-run reproduces the same output; the engine
	// charges the re-execution without repeating it.
	if plan.Enabled() {
		nodes := e.Cluster.Config().Nodes
		for n := 0; n < nodes; n++ {
			if !plan.NodeLost(mapPhase, n) {
				continue
			}
			for t := n; t < splits; t += nodes {
				if rec := &mapRecs[t]; !rec.exhausted {
					rec.failed++
					rec.wasted += rec.ops
				}
			}
		}
	}

	mapStats := cluster.PhaseStats{
		Name:    job.Name + "/map",
		Tasks:   int64(splits),
		Records: int64(len(input)),
	}
	shuffleBytes, lost := tally(&mapStats, mapRecs)
	if lost >= 0 {
		// Charge the work the failed job still performed, then surface the
		// terminal failure (no shuffle happens for an aborted job).
		return fail(&mapStats, fmt.Errorf("%w: job %q map task %d (%d attempts)",
			ErrTaskFailed, job.Name, lost, maxAtt))
	}
	// ---- Shuffle: the reducers fetch and verify each task's payload ----
	if err := consume(&mapStats, plan, mapPhase, maxAtt, mapRecs, mapWalk,
		func(t int) string { return fmt.Sprintf("job %q map task %d shuffle payload", job.Name, t) }); err != nil {
		return fail(&mapStats, err)
	}
	mapStats.ShuffleBytes = shuffleBytes
	// Hadoop spills map output to local disk and reads the input split from
	// HDFS.
	mapStats.DiskBytes = inputBytes + shuffleBytes
	e.Cluster.RunPhase(mapStats)

	// Cooperative cancellation boundary: the map phase (and its shuffle) is
	// fully charged, so metrics and trace stay consistent; the reduce phase
	// never starts and the job unwinds with the typed interrupt sentinel.
	if err := e.Cluster.Interrupted(); err != nil {
		return fail(nil, fmt.Errorf("mapred: job %q: %w", job.Name, err))
	}

	// ---- Reduce phase ----
	// Keys are partitioned into the configured number of reduce tasks (like
	// Hadoop's partitioner), so Engine.Reducers governs scheduling, not just
	// the charged task overhead. Task concurrency is bounded by the reduce
	// slots and the kernel pool's width, whichever is smaller.
	reducers := e.Reducers
	if reducers <= 0 {
		reducers = e.Cluster.TotalCores()
	}
	keys := st.keys()
	sortKeys(keys)
	redTasks := max(min(reducers, len(keys)), 1)
	part := func(t int) (lo, hi int) { return t * len(keys) / redTasks, (t + 1) * len(keys) / redTasks }
	redPhase := fmt.Sprintf("%s#%d/reduce", job.Name, seq)
	redRecs := make([]taskRecord, redTasks)
	ocs := make([]opsCounter, redTasks)
	rs := make([]R, len(keys)) // results in key order; a retry overwrites its range
	partWalk := func(t int) (int64, uint64) {
		lo, hi := part(t)
		return partPayload(kbf, rbf, keys[lo:hi], rs[lo:hi])
	}
	st.reducers(redTasks)
	parallel.Tasks(redTasks, min(reducers, parallel.TaskWorkers()), func(t int) {
		lo, hi := part(t)
		oc := &ocs[t]
		redRecs[t].attempts(plan, redPhase, t, maxAtt, func() int64 {
			oc.n = 0
			for i := lo; i < hi; i++ {
				rs[i] = job.Reduce(keys[i], st.values(t, keys[i]), oc)
			}
			return oc.n
		}, partWalk)
	})
	redStats := cluster.PhaseStats{Name: job.Name + "/reduce", Tasks: int64(redTasks)}
	outBytes, lost := tally(&redStats, redRecs)
	if lost >= 0 {
		// An aborted job commits no output.
		return fail(&redStats, fmt.Errorf("%w: job %q reduce task %d (%d attempts)",
			ErrTaskFailed, job.Name, lost, maxAtt))
	}
	// Reducers write results to HDFS. Job output is inter-job intermediate
	// data: the next job (or the driver) reads it back. This is the paper's
	// intermediate-data metric.
	redStats.DiskBytes = outBytes
	redStats.MaterializedBytes = outBytes
	// The driver consumes the reduce part files: re-verify each task's
	// checksum, then apply the plan's corruption decisions (a corrupted part
	// file re-runs its reduce task and is re-read).
	if err := consume(&redStats, plan, redPhase, maxAtt, redRecs, partWalk,
		func(t int) string { return fmt.Sprintf("job %q reduce task %d output", job.Name, t) }); err != nil {
		return fail(&redStats, err)
	}
	e.Cluster.RunPhase(redStats)
	if tr != nil {
		tr.End(trace.I("reducers", int64(redTasks)), trace.I("shuffle_bytes", shuffleBytes))
	}
	result := make(map[K]R, len(keys))
	for i, k := range keys {
		result[k] = rs[i]
	}
	return result, nil
}
