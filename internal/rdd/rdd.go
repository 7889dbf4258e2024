// Package rdd implements a miniature Spark-like engine: partitioned resilient
// distributed datasets with in-memory persistence, parallel actions,
// broadcast variables and accumulators — the abstractions Algorithm 5 of the
// paper (YtXSparkJob) is written against.
//
// As with internal/mapred, the computation is real (partitions are processed
// concurrently) while time and memory are simulated: caching charges the
// cluster's aggregate worker memory with spill-to-disk beyond it, actions are
// charged as phases to the cost model, and accumulator merges and broadcasts
// are charged as network traffic. Driver-side allocations go through the
// cluster's driver-memory accounting, which is what makes the MLlib-PCA
// out-of-memory failure reproducible.
//
// Fault tolerance is Spark's lineage model: arm it with Context.SetFaultPlan.
// Each RDD records its parent and recompute closure; cached partitions lost
// with a dead node are recomputed transitively from lineage (or re-read, if
// Checkpoint cut the lineage), failed task attempts are re-executed until
// they succeed, and all of it is charged to the cluster's recovery metrics
// while results stay bit-identical to a fault-free run.
package rdd

import (
	"fmt"
	"sort"
	"sync"

	"spca/internal/cluster"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// Context owns the simulated cluster state shared by all RDDs of a session.
type Context struct {
	cl         *cluster.Cluster
	partitions int
	state      *ctxState
}

// ctxState is the mutable session state shared by a context and every
// context derived from it via WithPartitions: the cache-memory pool, the
// fault plan, and the mutex that also guards each RDD's persistence and
// lineage fields (Persist/Unpersist may race with concurrent scans from
// another fit on the same session).
type ctxState struct {
	mu          sync.Mutex
	cachedBytes int64 // aggregate worker memory currently used for caching
	faults      *cluster.FaultPlan
	epoch       int64 // action counter, salts fault decisions per action
}

// NewContext returns a Spark-like context over cl. Actions schedule one task
// per partition; the default partition count is 2x the total cores.
func NewContext(cl *cluster.Cluster) *Context {
	return &Context{cl: cl, partitions: 2 * cl.TotalCores(), state: &ctxState{}}
}

// WithPartitions returns a derived context whose new RDDs default to n
// partitions. The receiver is left untouched (so concurrent fits sharing a
// session are unaffected); both contexts share the same cluster and cache
// accounting.
func (c *Context) WithPartitions(n int) *Context {
	if n <= 0 {
		panic("rdd: partitions must be positive")
	}
	derived := *c
	derived.partitions = n
	return &derived
}

// Cluster returns the underlying simulated cluster.
func (c *Context) Cluster() *cluster.Cluster { return c.cl }

// SetFaultPlan arms (or, with nil, disarms) deterministic fault injection for
// every action on this context and the contexts derived from it. Faults are
// simulated Spark-style: lost cached partitions are recovered through lineage
// (transitive recomputation, charged to the recovery metrics), failed task
// attempts are re-executed until they succeed, and results are bit-identical
// to a fault-free run by construction — only the cost accounting changes.
func (c *Context) SetFaultPlan(p *cluster.FaultPlan) {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	c.state.faults = p
}

// actionPlan returns the active fault plan and a salted phase key for one
// action, or (nil, "") when fault injection is off. Each action gets a fresh
// epoch so repeated same-named actions (one per EM iteration) draw distinct
// faults; driver code issues actions sequentially, so epoch assignment — and
// with it every fault decision — is deterministic for a given program.
func (c *Context) actionPlan(name string) (*cluster.FaultPlan, string) {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	if !c.state.faults.Enabled() {
		return nil, ""
	}
	c.state.epoch++
	return c.state.faults, fmt.Sprintf("%s#%d", name, c.state.epoch)
}

// aggregateMemory is the total worker memory available for caching.
func (c *Context) aggregateMemory() int64 {
	cfg := c.cl.Config()
	return int64(cfg.Nodes) * cfg.NodeMemory
}

// reserveCacheLocked claims up to want bytes of aggregate cache memory,
// returning the number of bytes actually granted (the rest spills to disk).
// The caller must hold c.state.mu.
func (c *Context) reserveCacheLocked(want int64) int64 {
	free := c.aggregateMemory() - c.state.cachedBytes
	if free <= 0 {
		return 0
	}
	granted := want
	if granted > free {
		granted = free
	}
	c.state.cachedBytes += granted
	return granted
}

// releaseCacheLocked returns bytes to the cache pool. The caller must hold
// c.state.mu.
func (c *Context) releaseCacheLocked(bytes int64) {
	c.state.cachedBytes -= bytes
	if c.state.cachedBytes < 0 {
		c.state.cachedBytes = 0
	}
}

// CachedBytes reports the aggregate memory currently used for cached RDDs.
func (c *Context) CachedBytes() int64 {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.cachedBytes
}

// Epoch reports the action counter that salts per-action fault decisions.
// Checkpoints capture it so a resumed driver draws the exact same faults an
// uninterrupted run would for the remaining actions.
func (c *Context) Epoch() int64 {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.epoch
}

// SetEpoch restores the action counter from a checkpoint.
func (c *Context) SetEpoch(epoch int64) {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	c.state.epoch = epoch
}

// TaskOps is handed to task functions so they can charge arithmetic work.
type TaskOps struct{ ops int64 }

// AddOps charges n arithmetic operations to the running phase.
func (t *TaskOps) AddOps(n int64) { t.ops += n }

// RDD is a partitioned dataset of T records.
type RDD[T any] struct {
	ctx    *Context
	name   string
	parts  [][]T
	sizeOf func(T) int64

	persisted  bool
	memBytes   int64 // resident in aggregate cluster memory
	spillBytes int64 // overflow that re-reads from disk on every scan
	// digests holds one FNV-64 checksum per partition, stamped when the
	// partition is materialized into the cache (Persist). Scans under an
	// armed fault plan re-verify them, so a caller mutating records it handed
	// to Persist — real, silent cache corruption — is caught instead of
	// poisoning later iterations.
	digests []uint64

	// Lineage, for Spark-style fault recovery. parent is the RDD this one was
	// derived from (nil for a root) and recomputeOpsPerRec the arithmetic to
	// re-derive one record from the parent; together they form the recompute
	// closure. checkpointed RDDs are durably on simulated disk (HDFS), so
	// recovery is a re-read and the lineage walk stops. lost marks cached
	// partitions that died with their node and must be recomputed before the
	// next scan. All guarded by ctx.state.mu.
	parent             lineageNode
	recomputeOpsPerRec int64
	checkpointed       bool
	lost               []bool
}

// lineageNode is the type-erased view of an RDD seen by its children during
// a lineage walk (parent and child generally hold different record types).
type lineageNode interface {
	// recoverLocked charges the cost of making partition p readable again,
	// recursing into the parent when this node must recompute. Caller holds
	// ctx.state.mu.
	recoverLocked(p int, rc *recovery)
	// markNodeLostLocked records that worker node (of nodes total) died,
	// invalidating the cached partitions it hosted, here and transitively up
	// the lineage. Caller holds ctx.state.mu.
	markNodeLostLocked(node, nodes int)
}

// recovery accumulates the charges of one action's fault handling.
type recovery struct {
	failed       int64 // failed attempts + lost partitions recovered
	ops          int64 // re-executed arithmetic
	disk         int64 // re-read bytes (checkpoint / root re-loads)
	spec         int64 // speculative backup copies
	stragglerOps int64 // serial op-time of unmitigated stragglers
	corrupt      int64 // cached/broadcast payloads that failed checksum verification
	reverify     int64 // bytes re-shipped to replace corrupt payloads
}

// maxLineageRetries bounds per-task retries purely as a safeguard against
// degenerate plans (TaskFailureRate = 1 would otherwise loop forever). Unlike
// the MapReduce engine, lineage recovery has no terminal failure: Spark
// resubmits until the task lands.
const maxLineageRetries = 1000

// partBytes is the serialized size of partition p.
func (r *RDD[T]) partBytes(p int) int64 {
	var b int64
	for _, rec := range r.parts[p] {
		b += r.sizeOf(rec)
	}
	return b
}

// partDigest checksums partition p: each record's position and modeled size
// is folded into an FNV-64 payload digest. Stamped at Persist time, verified
// on scans under an armed fault plan.
func (r *RDD[T]) partDigest(p int) uint64 {
	var dig cluster.PayloadDigest
	for i, rec := range r.parts[p] {
		dig.Add(int64(i), r.sizeOf(rec))
	}
	return dig.Sum()
}

// verifyCachedLocked re-verifies the checksums of this RDD's cached
// partitions. A mismatch means the records handed to Persist were mutated
// afterwards — real cache corruption the simulation cannot recover from, and
// a caller bug — so it panics with the typed sentinel in the message. Caller
// holds ctx.state.mu.
func (r *RDD[T]) verifyCachedLocked() {
	if !r.persisted || r.digests == nil {
		return
	}
	for p := range r.parts {
		if r.lost != nil && r.lost[p] {
			continue // lost partitions are recomputed, not read
		}
		if r.partDigest(p) != r.digests[p] {
			panic(fmt.Sprintf("rdd: %s partition %d: %v (cached records mutated after Persist)",
				r.name, p, cluster.ErrCorruptPayload))
		}
	}
}

func (r *RDD[T]) recoverLocked(p int, rc *recovery) {
	if r.checkpointed {
		rc.disk += r.partBytes(p) // durable copy: re-read, lineage cut
		return
	}
	if r.persisted && (r.lost == nil || !r.lost[p]) {
		return // cached copy (memory or local spill) still available
	}
	if r.parent != nil {
		r.parent.recoverLocked(p, rc)
	}
	rc.ops += int64(len(r.parts[p])) * r.recomputeOpsPerRec
	if r.persisted {
		r.lost[p] = false // the recomputed partition re-enters the cache
	}
}

func (r *RDD[T]) markNodeLostLocked(node, nodes int) {
	if r.persisted && !r.checkpointed {
		if r.lost == nil {
			r.lost = make([]bool, len(r.parts))
		}
		for p := node; p < len(r.parts); p += nodes {
			r.lost[p] = true
		}
	}
	if r.parent != nil {
		r.parent.markNodeLostLocked(node, nodes)
	}
}

// applyActionFaults rolls this action's fault decisions and folds the
// recovery charges into stats. Node losses invalidate cached partitions up
// the lineage and the lost partitions this action reads are recovered
// (recomputed transitively, or re-read if checkpointed); per-task attempt
// failures charge their re-execution; a straggling committing attempt either
// races a speculative copy or delays the phase. taskOps[p] is the real
// arithmetic of task p (nil for pure data-movement actions). Results are
// never touched — the engine charges re-execution instead of re-running
// closures, so actions with side effects (accumulator merges) stay exact.
func applyActionFaults[T any](r *RDD[T], plan *cluster.FaultPlan, phase string, stats *cluster.PhaseStats, taskOps []int64) {
	if !plan.Enabled() {
		return
	}
	st := r.ctx.state
	st.mu.Lock()
	defer st.mu.Unlock()
	// Scanning under an armed plan re-verifies the cached partitions'
	// checksums first: injected corruption below is accounting-only, but a
	// real digest mismatch means the cache itself was clobbered.
	r.verifyCachedLocked()
	var rc recovery
	nodes := r.ctx.cl.Config().Nodes
	for n := 0; n < nodes; n++ {
		if plan.NodeLost(phase, n) {
			r.markNodeLostLocked(n, nodes)
		}
	}
	for p := range r.parts {
		if r.lost != nil && r.lost[p] {
			rc.failed++
			r.recoverLocked(p, &rc)
		}
	}
	// Payload corruption on the partitions this scan reads: a corrupted block
	// is discarded like a lost one — recomputed from lineage, or re-read when
	// a durable copy exists — and the replacement is re-shipped to the reader.
	if plan.CorruptionRate > 0 {
		for p := range r.parts {
			for att := 1; att <= maxLineageRetries && plan.PayloadCorrupt(phase, p, att); att++ {
				rc.corrupt++
				rc.reverify += r.partBytes(p)
				if r.persisted && !r.checkpointed {
					if r.lost == nil {
						r.lost = make([]bool, len(r.parts))
					}
					r.lost[p] = true
				}
				r.recoverLocked(p, &rc)
			}
		}
	}
	for p, ops := range taskOps {
		att := 1
		for ; att <= maxLineageRetries && plan.AttemptFails(phase, p, att); att++ {
			rc.failed++
			rc.ops += ops // the failed attempt's work, re-executed
		}
		if plan.Straggles(phase, p, att) {
			if plan.SpeculativeExecution {
				rc.spec++
				rc.ops += ops
			} else {
				rc.stragglerOps += int64(float64(ops) * (plan.SlowFactor() - 1))
			}
		}
	}
	stats.FailedAttempts += rc.failed
	stats.RecomputedOps += rc.ops
	stats.RecoveryDiskBytes += rc.disk
	stats.SpeculativeTasks += rc.spec
	stats.StragglerOps += rc.stragglerOps
	stats.CorruptPayloads += rc.corrupt
	stats.ReverifyBytes += rc.reverify
}

// Checkpoint materializes the RDD to simulated durable storage (HDFS),
// cutting its lineage: recovery of a checkpointed partition is a disk
// re-read rather than a recomputation chain. The write is charged as one
// phase, like Spark's checkpoint job.
func (r *RDD[T]) Checkpoint() *RDD[T] {
	bytes := r.totalBytes()
	tr := r.ctx.cl.Tracer()
	if tr != nil {
		tr.Begin(r.name+"/checkpoint", trace.KindAction,
			trace.I("partitions", int64(len(r.parts))), trace.I("bytes", bytes))
		defer tr.End()
	}
	r.ctx.cl.RunPhase(cluster.PhaseStats{
		Name:              r.name + "/checkpoint",
		DiskBytes:         bytes,
		MaterializedBytes: bytes,
		Tasks:             int64(len(r.parts)),
	})
	st := r.ctx.state
	st.mu.Lock()
	defer st.mu.Unlock()
	r.checkpointed = true
	r.parent = nil
	r.lost = nil
	return r
}

// Parallelize distributes data across the context's partitions. sizeOf gives
// the serialized size of a record and drives all byte accounting. Loading is
// charged as one disk-read phase (the paper's datasets start in HDFS).
func Parallelize[T any](ctx *Context, name string, data []T, sizeOf func(T) int64) *RDD[T] {
	n := ctx.partitions
	if n > len(data) {
		n = len(data)
	}
	if n == 0 {
		n = 1
	}
	parts := make([][]T, n)
	for p := 0; p < n; p++ {
		lo := p * len(data) / n
		hi := (p + 1) * len(data) / n
		parts[p] = data[lo:hi]
	}
	// A root RDD's data lives durably in HDFS, so it is born checkpointed:
	// losing a cached copy of an input partition costs a re-read, never a
	// recomputation.
	r := &RDD[T]{ctx: ctx, name: name, parts: parts, sizeOf: sizeOf, checkpointed: true}
	ctx.cl.RunPhase(cluster.PhaseStats{
		Name:      name + "/load",
		DiskBytes: r.totalBytes(),
		Tasks:     int64(n),
	})
	return r
}

func (r *RDD[T]) totalBytes() int64 {
	var b int64
	for _, part := range r.parts {
		for _, rec := range part {
			b += r.sizeOf(rec)
		}
	}
	return b
}

// Count returns the number of records.
func (r *RDD[T]) Count() int {
	var n int
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return len(r.parts) }

// Persist pins the RDD in the cluster's aggregate memory. Bytes that do not
// fit spill to disk and are re-read (and charged) on every subsequent scan,
// matching Spark's MEMORY_AND_DISK behaviour the paper relies on ("the disk
// I/O is limited to the amount of data that does not fit in the aggregate
// memory of the cluster").
func (r *RDD[T]) Persist() *RDD[T] {
	total := r.totalBytes()
	st := r.ctx.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if r.persisted {
		return r
	}
	r.memBytes = r.ctx.reserveCacheLocked(total)
	r.spillBytes = total - r.memBytes
	r.persisted = true
	// Stamp per-partition checksums at materialization time; scans under an
	// armed fault plan re-verify them.
	r.digests = make([]uint64, len(r.parts))
	for p := range r.parts {
		r.digests[p] = r.partDigest(p)
	}
	return r
}

// Unpersist releases the cached memory.
func (r *RDD[T]) Unpersist() {
	st := r.ctx.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if !r.persisted {
		return
	}
	r.ctx.releaseCacheLocked(r.memBytes)
	r.persisted = false
	r.memBytes, r.spillBytes = 0, 0
	r.digests = nil
}

// scanDiskBytes is the disk traffic charged per full scan of this RDD.
func (r *RDD[T]) scanDiskBytes() int64 {
	st := r.ctx.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if !r.persisted {
		return r.totalBytes() // uncached RDDs re-read everything
	}
	return r.spillBytes
}

// ForeachPartition runs f once per partition in parallel and charges one
// phase: the tasks' arithmetic, a scan's disk traffic, and task overheads.
// It is the engine primitive behind every distributed job in this repo.
// It returns a typed interruption sentinel (wrapped) when the cluster's
// interrupt handle fired; the action's phase charge still commits first, so
// metrics and trace stay consistent at the abort boundary.
func (r *RDD[T]) ForeachPartition(name string, f func(task int, part []T, ops *TaskOps)) error {
	// Entry poll, before the action draws its fault epoch: an interrupted
	// run must not advance the fault cursor for an action it never starts.
	if err := r.ctx.cl.Interrupted(); err != nil {
		return fmt.Errorf("rdd: action %q: %w", name, err)
	}
	plan, phase := r.ctx.actionPlan(name)
	tr := r.ctx.cl.Tracer()
	if tr != nil {
		tr.Begin(name, trace.KindAction, trace.I("partitions", int64(len(r.parts))))
	}
	opsPer := make([]TaskOps, len(r.parts))
	parallel.Tasks(len(r.parts), parallel.TaskWorkers(), func(p int) {
		f(p, r.parts[p], &opsPer[p])
	})
	var totalOps int64
	taskOps := make([]int64, len(opsPer))
	for i := range opsPer {
		totalOps += opsPer[i].ops
		taskOps[i] = opsPer[i].ops
	}
	stats := cluster.PhaseStats{
		Name:       name,
		ComputeOps: totalOps,
		DiskBytes:  r.scanDiskBytes(),
		Tasks:      int64(len(r.parts)),
		Records:    int64(r.Count()),
	}
	applyActionFaults(r, plan, phase, &stats, taskOps)
	r.ctx.cl.RunPhase(stats)
	// Boundary poll after the fully charged action: the partitions' work is
	// done and committed, so a caller that unwinds here resumes bit-identically.
	if err := r.ctx.cl.Interrupted(); err != nil {
		if tr != nil {
			tr.End(trace.I("failed", 1))
		}
		return fmt.Errorf("rdd: action %q: %w", name, err)
	}
	if tr != nil {
		tr.End()
	}
	return nil
}

// Map transforms every record, returning a new (uncached) RDD. The
// transformation is charged as one phase; opsPerRec charges arithmetic.
func Map[T, U any](r *RDD[T], name string, f func(T) U, sizeOf func(U) int64, opsPerRec int64) *RDD[U] {
	plan, phase := r.ctx.actionPlan(name)
	tr := r.ctx.cl.Tracer()
	if tr != nil {
		tr.Begin(name, trace.KindAction, trace.I("partitions", int64(len(r.parts))))
		defer tr.End()
	}
	out := &RDD[U]{
		ctx: r.ctx, name: name, sizeOf: sizeOf, parts: make([][]U, len(r.parts)),
		// Lineage: the child re-derives a lost partition by re-applying f to
		// the parent's partition.
		parent: r, recomputeOpsPerRec: opsPerRec,
	}
	parallel.Tasks(len(r.parts), parallel.TaskWorkers(), func(p int) {
		dst := make([]U, len(r.parts[p]))
		for i, rec := range r.parts[p] {
			dst[i] = f(rec)
		}
		out.parts[p] = dst
	})
	outBytes := out.totalBytes()
	taskOps := make([]int64, len(r.parts))
	for p := range r.parts {
		taskOps[p] = int64(len(r.parts[p])) * opsPerRec
	}
	stats := cluster.PhaseStats{
		Name:       name,
		ComputeOps: int64(r.Count()) * opsPerRec,
		// The derived RDD is materialized for later passes (it is not
		// cached, so it lives on disk) — intermediate data in the paper's
		// sense.
		DiskBytes:         r.scanDiskBytes() + outBytes,
		MaterializedBytes: outBytes,
		Tasks:             int64(len(r.parts)),
		Records:           int64(r.Count()),
	}
	applyActionFaults(r, plan, phase, &stats, taskOps)
	r.ctx.cl.RunPhase(stats)
	return out
}

// Collect gathers all records at the driver, charging their network transfer
// and driver memory. It returns cluster.ErrDriverOOM (wrapped) if the driver
// cannot hold the result. The caller owns the driver allocation (the RDD's
// total byte size) and must release it with Cluster().FreeDriver once the
// collected data is no longer held — a leaked allocation skews DriverPeak
// and can trigger spurious OOMs in long multi-fit runs.
func (r *RDD[T]) Collect() ([]T, error) {
	if err := r.ctx.cl.Interrupted(); err != nil {
		return nil, fmt.Errorf("rdd: collect %s: %w", r.name, err)
	}
	plan, phase := r.ctx.actionPlan(r.name + "/collect")
	bytes := r.totalBytes()
	tr := r.ctx.cl.Tracer()
	if tr != nil {
		tr.Begin(r.name+"/collect", trace.KindAction,
			trace.I("partitions", int64(len(r.parts))), trace.I("bytes", bytes))
	}
	if err := r.ctx.cl.AllocDriver(bytes); err != nil {
		if tr != nil {
			tr.End(trace.I("driver_oom", 1))
		}
		return nil, fmt.Errorf("rdd: collect %s: %w", r.name, err)
	}
	stats := cluster.PhaseStats{
		Name:         r.name + "/collect",
		ShuffleBytes: bytes,
		DiskBytes:    r.scanDiskBytes(),
		Tasks:        int64(len(r.parts)),
		Records:      int64(r.Count()),
	}
	// Collect moves data rather than computing, so only node-loss recovery
	// applies (nil taskOps: no per-task arithmetic to re-execute).
	applyActionFaults(r, plan, phase, &stats, nil)
	r.ctx.cl.RunPhase(stats)
	if tr != nil {
		tr.End()
	}
	out := make([]T, 0, r.Count())
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out, nil
}

// Aggregate computes a per-partition partial with seq and merges partials
// with comb, Spark treeAggregate-style. Each partial's bytes are charged as
// shuffle traffic and the final result is allocated on the driver; the
// caller must free that allocation via Cluster().FreeDriver(sizeOf(result))
// when the result is no longer needed.
// This is the communication pattern of MLlib's Gramian computation.
func Aggregate[T, U any](r *RDD[T], name string, zero func() U, seq func(U, T, *TaskOps) U, comb func(U, U) U, sizeOf func(U) int64) (U, error) {
	// Entry poll, before the action draws its fault epoch (see
	// ForeachPartition).
	if err := r.ctx.cl.Interrupted(); err != nil {
		var zeroU U
		return zeroU, fmt.Errorf("rdd: aggregate %q: %w", name, err)
	}
	plan, phase := r.ctx.actionPlan(name)
	tr := r.ctx.cl.Tracer()
	if tr != nil {
		tr.Begin(name, trace.KindAction, trace.I("partitions", int64(len(r.parts))))
	}
	partials := make([]U, len(r.parts))
	opsPer := make([]TaskOps, len(r.parts))
	parallel.Tasks(len(r.parts), parallel.TaskWorkers(), func(p int) {
		acc := zero()
		for _, rec := range r.parts[p] {
			acc = seq(acc, rec, &opsPer[p])
		}
		partials[p] = acc
	})

	var totalOps, shuffle int64
	taskOps := make([]int64, len(opsPer))
	for i := range opsPer {
		totalOps += opsPer[i].ops
		taskOps[i] = opsPer[i].ops
	}
	result := zero()
	for _, part := range partials {
		shuffle += sizeOf(part)
		result = comb(result, part)
	}
	stats := cluster.PhaseStats{
		Name:         name,
		ComputeOps:   totalOps,
		ShuffleBytes: shuffle,
		DiskBytes:    r.scanDiskBytes(),
		Tasks:        int64(len(r.parts)),
		Records:      int64(r.Count()),
	}
	applyActionFaults(r, plan, phase, &stats, taskOps)
	// Boundary poll before the result lands on the driver: the phase charge
	// below commits (the work ran), but no driver allocation is made that the
	// unwinding caller would never free.
	if err := r.ctx.cl.Interrupted(); err != nil {
		var zeroU U
		r.ctx.cl.RunPhase(stats)
		if tr != nil {
			tr.End(trace.I("failed", 1))
		}
		return zeroU, fmt.Errorf("rdd: aggregate %q: %w", name, err)
	}
	resBytes := sizeOf(result)
	if err := r.ctx.cl.AllocDriver(resBytes); err != nil {
		var zeroU U
		// The phase still ran before the driver fell over.
		r.ctx.cl.RunPhase(stats)
		if tr != nil {
			tr.End(trace.I("driver_oom", 1))
		}
		return zeroU, fmt.Errorf("rdd: aggregate %s: %w", name, err)
	}
	stats.MaterializedBytes = resBytes
	r.ctx.cl.RunPhase(stats)
	if tr != nil {
		tr.End(trace.I("result_bytes", resBytes))
	}
	return result, nil
}

// Broadcast charges shipping bytes of driver state to every worker node
// (e.g. the small CM = C*M⁻¹ matrix sPCA broadcasts each iteration). Under a
// fault plan with payload corruption armed, each node's block may arrive
// corrupted (detected by its checksum) and is re-shipped until a clean copy
// lands. Unlike actions, broadcasts never bump the fault epoch — the
// corruption draws are keyed off the current epoch plus the broadcast name,
// which the sequential driver makes deterministic and which checkpoint/resume
// restores exactly.
func Broadcast(ctx *Context, name string, bytes int64) {
	stats := cluster.PhaseStats{
		Name:         name + "/broadcast",
		ShuffleBytes: bytes * int64(ctx.cl.Config().Nodes),
	}
	ctx.state.mu.Lock()
	plan := ctx.state.faults
	epoch := ctx.state.epoch
	ctx.state.mu.Unlock()
	if plan != nil && plan.CorruptionRate > 0 {
		phase := fmt.Sprintf("%s@%d/bcast", name, epoch)
		nodes := ctx.cl.Config().Nodes
		for n := 0; n < nodes; n++ {
			for att := 1; att <= maxLineageRetries && plan.PayloadCorrupt(phase, n, att); att++ {
				stats.CorruptPayloads++
				stats.ReverifyBytes += bytes
			}
		}
	}
	ctx.cl.RunPhase(stats)
}

// Accumulator is a write-only-from-workers, read-from-driver variable with an
// associative merge, mirroring Spark accumulators (§4.2 of the paper). Tasks
// build a local value and publish it with Merge, which charges the value's
// serialized size as network traffic to the driver.
//
// Values fold in ascending task order, so repeated runs sum floats in the
// same order whatever the goroutine schedule. As Spark merges a task's update
// when the task completes, Merge folds eagerly: a task's value is folded as
// soon as every lower-numbered task's has been, so the accumulator holds only
// the values that finished ahead of a slower task. Value folds what is left,
// still in ascending order (a task that never merged only delays the eager
// fold), and starts the order afresh for the next action.
//
// Each task merges at most once per action; a second Merge for a task panics.
type Accumulator[T any] struct {
	ctx   *Context
	name  string
	merge func(into, from T) T
	size  func(T) int64

	mu      sync.Mutex
	value   T
	parts   map[int]T // merged values not yet folded, by task
	next    int       // the lowest task not yet folded
	folding bool      // a Merge call is folding; the others only store
	pending int64     // shuffle bytes accumulated since last Value() read
}

// NewAccumulator creates an accumulator with initial value zero.
func NewAccumulator[T any](ctx *Context, name string, zero T, merge func(into, from T) T, size func(T) int64) *Accumulator[T] {
	return &Accumulator[T]{ctx: ctx, name: name, merge: merge, size: size, value: zero, parts: make(map[int]T)}
}

// Merge publishes task's local value. The task index (from ForeachPartition)
// fixes the fold order. The call that stores the lowest unfolded task's value
// folds it, and every consecutive value present after it, outside the lock:
// other tasks' Merge calls only store and return meanwhile.
func (a *Accumulator[T]) Merge(task int, local T) {
	b := a.size(local)
	a.mu.Lock()
	if _, dup := a.parts[task]; dup || task < a.next {
		a.mu.Unlock()
		panic(fmt.Sprintf("rdd: accumulator %s: task %d merged twice in one action", a.name, task))
	}
	a.parts[task] = local
	a.pending += b
	if a.folding {
		a.mu.Unlock()
		return
	}
	a.folding = true
	for {
		v, ok := a.parts[a.next]
		if !ok {
			break
		}
		delete(a.parts, a.next)
		a.next++
		value := a.value
		a.mu.Unlock()
		value = a.merge(value, v)
		a.mu.Lock()
		a.value = value
	}
	a.folding = false
	a.mu.Unlock()
}

// Value reads the accumulated value at the driver once the action's tasks
// have returned, charging the pending network traffic of all merges since
// the previous read.
func (a *Accumulator[T]) Value() T {
	a.mu.Lock()
	tasks := make([]int, 0, len(a.parts))
	for t := range a.parts {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		a.value = a.merge(a.value, a.parts[t])
	}
	clear(a.parts)
	a.next = 0
	pending := a.pending
	a.pending = 0
	v := a.value
	a.mu.Unlock()
	if pending > 0 {
		a.ctx.cl.RunPhase(cluster.PhaseStats{
			Name:         a.name + "/acc",
			ShuffleBytes: pending,
			// The aggregated value is this job's output, handed to the
			// driver for the next phase.
			MaterializedBytes: a.size(v),
		})
	}
	return v
}
