package rdd

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spca/internal/cluster"
)

func newTestContext(mutate ...func(*cluster.Config)) *Context {
	cfg := cluster.DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	return NewContext(cluster.MustNew(cfg))
}

func intSize(int) int64 { return 8 }

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeAndCount(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(1000), intSize)
	if r.Count() != 1000 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.NumPartitions() != 2*64 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	// Loading charged one disk phase of 8000 bytes.
	m := ctx.Cluster().Metrics()
	if m.DiskBytes != 8000 || m.Phases != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestParallelizeSmallInput(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "tiny", rangeInts(3), intSize)
	if r.NumPartitions() != 3 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	empty := Parallelize(ctx, "empty", nil, intSize)
	if empty.Count() != 0 || empty.NumPartitions() != 1 {
		t.Fatal("empty rdd malformed")
	}
}

func TestForeachPartitionVisitsEverything(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(500), intSize)
	var sum int64
	r.ForeachPartition("sum", func(task int, part []int, ops *TaskOps) {
		var local int64
		for _, v := range part {
			local += int64(v)
			ops.AddOps(1)
		}
		atomic.AddInt64(&sum, local)
	})
	if sum != 500*499/2 {
		t.Fatalf("sum = %d", sum)
	}
	m := ctx.Cluster().Metrics()
	if m.ComputeOps != 500 {
		t.Fatalf("ops = %d", m.ComputeOps)
	}
}

func TestUncachedScanChargesDisk(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(100), intSize)
	before := ctx.Cluster().Metrics().DiskBytes
	r.ForeachPartition("scan", func(int, []int, *TaskOps) {})
	after := ctx.Cluster().Metrics().DiskBytes
	if after-before != 800 {
		t.Fatalf("uncached scan charged %d disk bytes", after-before)
	}
}

func TestPersistEliminatesScanDisk(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(100), intSize).Persist()
	before := ctx.Cluster().Metrics().DiskBytes
	r.ForeachPartition("scan", func(int, []int, *TaskOps) {})
	after := ctx.Cluster().Metrics().DiskBytes
	if after != before {
		t.Fatalf("cached scan charged %d disk bytes", after-before)
	}
	if ctx.CachedBytes() != 800 {
		t.Fatalf("cached bytes = %d", ctx.CachedBytes())
	}
	r.Unpersist()
	if ctx.CachedBytes() != 0 {
		t.Fatal("unpersist did not release memory")
	}
}

func TestPersistSpillsBeyondAggregateMemory(t *testing.T) {
	ctx := newTestContext(func(c *cluster.Config) {
		c.Nodes = 2
		c.NodeMemory = 100 // aggregate 200 bytes
	})
	r := Parallelize(ctx, "big", rangeInts(100), intSize).Persist() // 800 bytes
	if r.memBytes != 200 || r.spillBytes != 600 {
		t.Fatalf("mem=%d spill=%d", r.memBytes, r.spillBytes)
	}
	before := ctx.Cluster().Metrics().DiskBytes
	r.ForeachPartition("scan", func(int, []int, *TaskOps) {})
	if got := ctx.Cluster().Metrics().DiskBytes - before; got != 600 {
		t.Fatalf("spilled scan charged %d", got)
	}
}

func TestMapTransforms(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(10), intSize)
	doubled := Map(r, "double", func(v int) int { return 2 * v }, intSize, 1)
	got, err := doubled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Cluster().FreeDriver(doubled.totalBytes())
	if len(got) != 10 || got[3] != 6 || got[9] != 18 {
		t.Fatalf("collect = %v", got)
	}
}

func TestCollectFreePairsWithAlloc(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(100), intSize)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	bytes := r.totalBytes()
	if got := ctx.Cluster().DriverUsed(); got != bytes {
		t.Fatalf("driver holds %d bytes after collect, want %d", got, bytes)
	}
	ctx.Cluster().FreeDriver(bytes)
	if got := ctx.Cluster().DriverUsed(); got != 0 {
		t.Fatalf("driver holds %d bytes after paired free", got)
	}
}

func TestCollectDriverOOM(t *testing.T) {
	ctx := newTestContext(func(c *cluster.Config) { c.DriverMemory = 100 })
	r := Parallelize(ctx, "ints", rangeInts(1000), intSize)
	if _, err := r.Collect(); !errors.Is(err, cluster.ErrDriverOOM) {
		t.Fatalf("expected driver OOM, got %v", err)
	}
}

func TestAggregateSums(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(100), intSize)
	got, err := Aggregate(r, "sum",
		func() int { return 0 },
		func(acc, v int, ops *TaskOps) int { ops.AddOps(1); return acc + v },
		func(a, b int) int { return a + b },
		intSize,
	)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4950 {
		t.Fatalf("aggregate = %d", got)
	}
	// Each partition shipped an 8-byte partial.
	phases := ctx.Cluster().PhaseLog()
	last := phases[len(phases)-1]
	if last.ShuffleBytes != int64(r.NumPartitions())*8 {
		t.Fatalf("shuffle = %d, partitions = %d", last.ShuffleBytes, r.NumPartitions())
	}
}

func TestAggregateDriverOOM(t *testing.T) {
	ctx := newTestContext(func(c *cluster.Config) { c.DriverMemory = 4 })
	r := Parallelize(ctx, "ints", rangeInts(10), intSize)
	_, err := Aggregate(r, "sum",
		func() int { return 0 },
		func(acc, v int, _ *TaskOps) int { return acc + v },
		func(a, b int) int { return a + b },
		intSize,
	)
	if !errors.Is(err, cluster.ErrDriverOOM) {
		t.Fatalf("expected driver OOM, got %v", err)
	}
	if !strings.Contains(err.Error(), "sum") {
		t.Fatalf("error should name the phase: %v", err)
	}
}

func TestBroadcastChargesPerNode(t *testing.T) {
	ctx := newTestContext()
	Broadcast(ctx, "cm", 1000)
	m := ctx.Cluster().Metrics()
	if m.ShuffleBytes != 8000 { // 8 nodes
		t.Fatalf("broadcast shuffle = %d", m.ShuffleBytes)
	}
}

func TestAccumulator(t *testing.T) {
	ctx := newTestContext()
	acc := NewAccumulator(ctx, "total", 0.0,
		func(a, b float64) float64 { return a + b },
		func(float64) int64 { return 8 })
	r := Parallelize(ctx, "ints", rangeInts(100), intSize)
	r.ForeachPartition("accumulate", func(task int, part []int, ops *TaskOps) {
		var local float64
		for _, v := range part {
			local += float64(v)
		}
		acc.Merge(task, local)
	})
	if got := acc.Value(); got != 4950 {
		t.Fatalf("accumulator = %v", got)
	}
	// Reading the value charged one phase with partitions x 8 bytes.
	phases := ctx.Cluster().PhaseLog()
	last := phases[len(phases)-1]
	if last.Name != "total/acc" || last.ShuffleBytes != int64(r.NumPartitions())*8 {
		t.Fatalf("acc phase = %+v", last)
	}
	// Second read with no new merges charges nothing.
	n := ctx.Cluster().Metrics().Phases
	_ = acc.Value()
	if ctx.Cluster().Metrics().Phases != n {
		t.Fatal("idle Value() charged a phase")
	}
}

func TestWithPartitions(t *testing.T) {
	ctx := newTestContext().WithPartitions(4)
	r := Parallelize(ctx, "ints", rangeInts(100), intSize)
	if r.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive partitions")
		}
	}()
	ctx.WithPartitions(0)
}

func TestWithPartitionsReturnsDerivedContext(t *testing.T) {
	ctx := newTestContext()
	base := ctx.partitions
	derived := ctx.WithPartitions(4)
	if ctx.partitions != base {
		t.Fatalf("WithPartitions mutated the parent context: %d", ctx.partitions)
	}
	if derived.partitions != 4 {
		t.Fatalf("derived partitions = %d", derived.partitions)
	}
	// Cache accounting is shared: a persist through the derived context is
	// visible through the parent.
	r := Parallelize(derived, "ints", rangeInts(10), intSize).Persist()
	if ctx.CachedBytes() != 80 || derived.CachedBytes() != 80 {
		t.Fatalf("cache pool not shared: parent=%d derived=%d",
			ctx.CachedBytes(), derived.CachedBytes())
	}
	r.Unpersist()
	if ctx.CachedBytes() != 0 {
		t.Fatal("unpersist not visible through parent context")
	}
}

// TestConcurrentPersistForeach is the -race regression test for the unlocked
// persisted/memBytes/spillBytes mutation: one fit's Persist/Unpersist cycle
// must not race with another fit scanning its own RDD on the same session.
func TestConcurrentPersistForeach(t *testing.T) {
	ctx := newTestContext()
	a := Parallelize(ctx, "a", rangeInts(200), intSize)
	b := Parallelize(ctx, "b", rangeInts(200), intSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			a.Persist()
			a.ForeachPartition("scan-a", func(int, []int, *TaskOps) {})
			a.Unpersist()
		}
	}()
	for i := 0; i < 50; i++ {
		b.Persist()
		b.ForeachPartition("scan-b", func(int, []int, *TaskOps) {})
		b.Unpersist()
	}
	<-done
	if ctx.CachedBytes() != 0 {
		t.Fatalf("cache accounting drifted: %d bytes still reserved", ctx.CachedBytes())
	}
}

func TestPersistIdempotent(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(10), intSize)
	r.Persist()
	r.Persist()
	if ctx.CachedBytes() != 80 {
		t.Fatalf("double persist double-charged: %d", ctx.CachedBytes())
	}
	r.Unpersist()
	r.Unpersist()
	if ctx.CachedBytes() != 0 {
		t.Fatal("double unpersist corrupted accounting")
	}
}

// Property: Aggregate equals a sequential fold for random data and
// partition counts.
func TestAggregateProperty(t *testing.T) {
	f := func(seed uint16, n uint8, parts uint8) bool {
		data := make([]int, int(n)+1)
		var want int
		for i := range data {
			data[i] = (int(seed)*31 + i*7) % 100
			want += data[i]
		}
		ctx := newTestContext().WithPartitions(int(parts%20) + 1)
		r := Parallelize(ctx, "p", data, intSize)
		got, err := Aggregate(r, "sum",
			func() int { return 0 },
			func(acc, v int, _ *TaskOps) int { return acc + v },
			func(a, b int) int { return a + b },
			intSize,
		)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForeachRecordsCharged(t *testing.T) {
	ctx := newTestContext()
	r := Parallelize(ctx, "ints", rangeInts(42), intSize)
	r.ForeachPartition("scan", func(int, []int, *TaskOps) {})
	log := ctx.Cluster().PhaseLog()
	last := log[len(log)-1]
	if last.Records != 42 {
		t.Fatalf("records = %d, want 42", last.Records)
	}
}
