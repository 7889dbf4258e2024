package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest order statistics. It sorts xs in place
// and returns 0 for an empty sample.
func quantile[T uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return float64(xs[lo]) + (pos-float64(lo))*(float64(xs[hi])-float64(xs[lo]))
}

// median is quantile(xs, 0.5).
func median[T uint32 | float64](xs []T) float64 { return quantile(xs, 0.5) }

// perSecond is a throughput: n completed operations over elapsed.
func perSecond(n int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSnap is a reading of the process's CPU time and allocator counters.
type procSnap struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	pause      time.Duration
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
		pause:      time.Duration(ms.PauseTotalNs),
	}
}

// procMetrics stores the per-op process costs between two readings that
// bracket ops operations over wall time.
func procMetrics(v map[string]float64, a, b procSnap, ops int, wall time.Duration) {
	n := float64(max(ops, 1))
	cpu := b.cpu - a.cpu
	v["proc.cpu_ms_per_op"] = ms(cpu) / n
	v["proc.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	v["proc.alloc_mb_per_op"] = float64(b.allocBytes-a.allocBytes) / (1 << 20) / n
	v["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	v["proc.gc_per_op"] = float64(b.gcs-a.gcs) / n
	v["proc.gc_pause_ms_per_op"] = ms(b.pause-a.pause) / n
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostLine records the machine shape every result is read against.
func hostLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stallGap is the shortest clock gap the stall meter counts: a spinning
// goroutine that does not observe the clock for this long was not running.
const stallGap = time.Millisecond

// stallMeter spins for d reading the clock and returns the milliseconds per
// second lost to gaps of at least stallGap: a control that tells a slow phase
// of the host apart from a slower program.
func stallMeter(d time.Duration) float64 {
	start := time.Now()
	prev := start
	var lost time.Duration
	for {
		now := time.Now()
		if gap := now.Sub(prev); gap >= stallGap {
			lost += gap
		}
		prev = now
		if now.Sub(start) >= d {
			return ms(lost) / now.Sub(start).Seconds()
		}
	}
}
