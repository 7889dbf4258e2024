package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spca"
)

// tinySize runs every workload in well under a second.
var tinySize = sizes{
	fitRows: 300, fitCols: 60, fitD: 4, fitIters: 2,
	serveRows: 200, serveCols: 40, serveD: 4, serveIters: 3,
	setups:       2,
	stall:        20 * time.Millisecond,
	publishEvery: 50 * time.Millisecond,
	probeBatches: 3, probeCalls: 5,
}

// runTiny runs a workload at tinySize and returns its options, its parsed
// result line and the whole report.
func runTiny(t *testing.T, name string, traced bool) (*options, result, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := &options{
		workload: name, seed: 7, window: 300 * time.Millisecond, traced: traced, size: tinySize,
		workDir: t.TempDir(), spansOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
	out, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := report(&buf, o, out); err != nil {
		t.Fatalf("%s report: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, buf.String())
	}
	return o, res, buf.String()
}

// exercised lists the per-layer metrics each workload must measure as
// nonzero; every other per-layer metric belongs to an idle layer and is 0.
var exercised = map[string][]string{
	"fit-spark-sparse": {
		"fit.prelude_ms", "ppca.iter_ms", "ppca.driver_ms", "ppca.iterations",
		"rdd.YtXJob_ms", "rdd.ss3Job_ms", "rdd.meanJob_ms", "rdd.FnormJob_ms",
		"cluster.sim_s", "cluster.shuffle_mb", "cluster.task_attempts",
	},
	"fit-mapreduce-ckpt": {
		"fit.prelude_ms", "ppca.iter_ms", "ppca.driver_ms", "ppca.iterations",
		"mapred.YtXJob_ms", "mapred.ss3Job_ms", "mapred.meanJob_ms", "mapred.FnormJob_ms",
		"cluster.sim_s", "cluster.shuffle_mb", "cluster.task_attempts",
		"checkpoint.save_ms", "checkpoint.bytes",
	},
	"serve-online": {
		"matrix.transform_us", "serve.server_p50_ms", "serve.server_p99_ms",
		"serve.p90_ms", "serve.p99_ms", "serve.publish_ms", "serve.versions_seen",
	},
}

// alwaysMeasured are per-layer metrics every workload measures as nonzero.
var alwaysMeasured = []string{
	"op.p50_ms", "parallel.dispatch_us", "proc.cpu_ms_per_op", "proc.cpu_util",
	"proc.alloc_mb_per_op", "proc.allocs_per_op",
}

// printedOnly are the end-to-end metrics an untraced run prints by name and
// unit above the result line but keeps out of it.
var printedOnly = map[string][]string{
	"fit-spark-sparse":   {"p50_ms ", "ops_per_s ", "sim_s "},
	"fit-mapreduce-ckpt": {"p50_ms ", "ops_per_s ", "sim_s "},
	"serve-online":       {"p50_ms ", "p90_ms ", "p99_ms ", "ops_per_s "},
}

// mayBeZero are measured on every workload but can read 0 on a short run:
// no failed attempts, no collection, no host stall, a wire time or overhead
// within the clock's noise.
var mayBeZero = map[string]bool{
	"cluster.failed_attempts": true, "proc.gc_per_op": true, "proc.gc_pause_ms_per_op": true,
	"trace.overhead_pct": true, "host.stall_ms_per_s": true, "serve.wire_ms": true,
	"parallel.dispatch_allocs": true,
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			_, res, text := runTiny(t, w.name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, text)
			}
			if !strings.Contains(text, "fail_ratio") || !strings.Contains(text, "host: nproc=") {
				t.Errorf("%s traced=%v: report lacks fail_ratio or the host line\n%s", w.name, traced, text)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if !traced {
				for _, name := range printedOnly[w.name] {
					if !strings.Contains(text, "  "+name) {
						t.Errorf("%s: report does not print %s\n%s", w.name, name, text)
					}
				}
				continue
			}
			busy := map[string]bool{}
			for _, n := range append(exercised[w.name], alwaysMeasured...) {
				busy[n] = true
			}
			for _, d := range perLayer {
				v := res.Metrics[d.name].Value
				if busy[d.name] && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
				}
				if !busy[d.name] && !mayBeZero[d.name] && v != 0 {
					t.Errorf("%s: %s = %v on an idle layer, want 0", w.name, d.name, v)
				}
			}
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestTracedSpansNest checks the span file of a traced fit: every job or
// action hangs under an iteration or a fit, every iteration under a fit,
// every fit under the benchmark's operation span, and every timed span lies
// within its parent.
func TestTracedSpansNest(t *testing.T) {
	for _, name := range []string{"fit-spark-sparse", "fit-mapreduce-ckpt"} {
		o, _, _ := runTiny(t, name, true)
		spans := readSpans(t, o.spansOut)
		type key struct{ op, id int }
		byID := map[key]span{}
		for _, s := range spans {
			byID[key{s.Op, s.ID}] = s
		}
		want := map[string][]string{
			"job":       {"iteration", "fit"},
			"action":    {"iteration", "fit"},
			"iteration": {"fit"},
			"fit":       {"op"},
		}
		counts := map[string]int{}
		for _, s := range spans {
			counts[s.Kind]++
			if s.End < s.Start || (s.Instant && s.End != s.Start) {
				t.Errorf("%s: span %+v has a bad interval", name, s)
			}
			kinds, nested := want[s.Kind]
			if !nested {
				continue
			}
			p, ok := byID[key{s.Op, s.Parent}]
			if !ok || !contains(kinds, p.Kind) {
				t.Errorf("%s: %s span %q (op %d) has parent %+v, want one of %v", name, s.Kind, s.Name, s.Op, p, kinds)
				continue
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %q [%v,%v] outside its parent %q [%v,%v]", name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		for _, k := range []string{"op", "fit", "iteration", "phase"} {
			if counts[k] == 0 {
				t.Errorf("%s: no %s spans in %v", name, k, counts)
			}
		}
		if counts["job"]+counts["action"] == 0 {
			t.Errorf("%s: no job or action spans in %v", name, counts)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestQuantileAndThroughput(t *testing.T) {
	sample := []float64{50, 15, 40, 35, 20}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {0.25, 20}, {0.5, 35}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := quantile(append([]float64(nil), sample...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", sample, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64(nil), 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
	if got := quantile([]uint32{300, 100, 200, 400}, 0.5); got != 250 {
		t.Errorf("median of 100..400 ns = %v, want 250", got)
	}
	if got := perSecond(50, 2*time.Second); got != 25 {
		t.Errorf("perSecond(50, 2s) = %v, want 25", got)
	}
	if got := perSecond(3, 0); got != 0 {
		t.Errorf("perSecond over no time = %v, want 0", got)
	}
}

// TestRecordsGrow checks that a connection faster than the records were
// sized for keeps every sample.
func TestRecordsGrow(t *testing.T) {
	r := newRecords(time.Millisecond, false)
	n := cap(r.lat) + 10
	for i := 0; i < n; i++ {
		push(&r.lat, time.Duration(i))
	}
	if len(r.lat) != n || r.lat[n-1] != uint32(n-1) {
		t.Errorf("kept %d of %d samples", len(r.lat), n)
	}
}

func tinyInput(t *testing.T) *spca.Sparse {
	t.Helper()
	in, err := spca.NewDataset(spca.DatasetSpec{Kind: spca.Tweets, Rows: tinySize.serveRows, Cols: tinySize.serveCols, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestClientRoundTrip drives the load generator against a stub server that
// answers every frame with the precomputed payload, served as version 3: the
// client accepts it without allocating, and rejects an answer that differs
// in one byte.
func TestClientRoundTrip(t *testing.T) {
	in := tinyInput(t)
	res, err := spca.Fit(in, spca.Config{Algorithm: spca.LocalPPCA, Components: tinySize.serveD, MaxIter: tinySize.serveIters})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := buildRequests(in, &res.Model)
	if err != nil {
		t.Fatal(err)
	}
	r := &reqs[1]
	// Whole replies, length prefix included, so the stub allocates nothing.
	good := make([]byte, 4+len(r.want))
	binary.LittleEndian.PutUint32(good, uint32(len(r.want)))
	copy(good[4:], r.want)
	binary.LittleEndian.PutUint64(good[8:16], 3)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	corrupt := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		frame := make([]byte, len(r.frame))
		for {
			if _, err := io.ReadFull(c, frame); err != nil {
				return
			}
			reply := good
			select {
			case <-corrupt:
				reply = bad
			default:
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(0, conn, len(r.want), 4)
	allocs := testing.AllocsPerRun(500, func() {
		if v, ok, err := c.roundTrip(r); !ok || v != 3 || err != nil {
			t.Fatalf("roundTrip = %d, %v, %v; want version 3 accepted", v, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a client round trip allocates %v times, want 0", allocs)
	}
	corrupt <- struct{}{}
	if _, ok, err := c.roundTrip(r); ok || err != nil {
		t.Errorf("a corrupted answer was accepted (ok=%v, err=%v)", ok, err)
	}
	conn.Close()
	<-done
}

// TestServeSetupFailure checks that a setup failing halfway, here on a
// missing scratch directory, reports the error and releases what it built.
func TestServeSetupFailure(t *testing.T) {
	o := &options{seed: 7, window: time.Second, size: tinySize, workDir: filepath.Join(t.TempDir(), "missing")}
	if st, err := newServeState(o); err == nil || st != nil {
		t.Fatalf("newServeState = %v, %v; want an error", st, err)
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names the workloads and
// metrics, with their units, that perfbench reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, have)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var a, b []string
		for _, m := range c.json {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			b = append(b, d.name+" "+d.unit)
		}
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("BENCHMARK.json %s\n  %v\nperfbench reports\n  %v", c.kind, a, b)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-online", "--seconds", "0"},
		{"--workload", "serve-online", "--trace", "2"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil || buf.Len() != 0 {
			t.Errorf("run(%v) = %v with output %q; want an error and no output", args, err, buf.String())
		}
	}
}
