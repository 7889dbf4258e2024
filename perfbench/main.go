// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload per invocation against the library from the same
// process, checks every output, and prints the metrics as the last line of
// standard output:
//
//	perfbench --workload fit-spark-sparse --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) interleaves traced and untraced operations, probes single
// layers through their public functions, writes the recorded spans to a JSON
// lines file when it ends, and reports the per-layer metrics. README.md
// beside this file explains the workloads, the metrics and the noise they
// are designed around.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports all
// of them, so each must mean something on every workload and never be zero.
// The operation timings (p50_ms, p90_ms, ops_per_s) are printed above the
// result line but not listed here: on a shared host their medians moved by
// up to a quarter between runs of identical code, as the host's speed
// changed, so no bound could tell a program change from a slow phase of the
// host. README.md gives the measured spreads. setup_s still times whole
// operations, since every setup ends with a warm-up operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"model_err", "ratio"},
}

// engineJobs are the MapReduce jobs and RDD actions of one sPCA fit.
var engineJobs = []string{"YtXJob", "ss3Job", "meanJob", "FnormJob"}

// perLayer lists the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"op.p50_ms", "ms"},
		{"fit.prelude_ms", "ms"},
		{"ppca.iter_ms", "ms"},
		{"ppca.driver_ms", "ms"},
		{"ppca.iterations", "count"},
	}
	for _, engine := range []string{"rdd", "mapred"} {
		for _, job := range engineJobs {
			defs = append(defs, metricDef{engine + "." + job + "_ms", "ms"})
		}
	}
	return append(defs,
		metricDef{"cluster.sim_s", "s"},
		metricDef{"cluster.shuffle_mb", "MB"},
		metricDef{"cluster.task_attempts", "count"},
		metricDef{"cluster.failed_attempts", "count"},
		metricDef{"checkpoint.save_ms", "ms"},
		metricDef{"checkpoint.bytes", "bytes"},
		metricDef{"matrix.transform_us", "us"},
		metricDef{"parallel.dispatch_us", "us"},
		metricDef{"parallel.dispatch_allocs", "count"},
		metricDef{"serve.server_p50_ms", "ms"},
		metricDef{"serve.server_p99_ms", "ms"},
		metricDef{"serve.wire_ms", "ms"},
		metricDef{"serve.p90_ms", "ms"},
		metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.publish_ms", "ms"},
		metricDef{"serve.versions_seen", "count"},
		metricDef{"proc.cpu_ms_per_op", "ms"},
		metricDef{"proc.cpu_util", "ratio"},
		metricDef{"proc.alloc_mb_per_op", "MB"},
		metricDef{"proc.allocs_per_op", "count"},
		metricDef{"proc.gc_per_op", "count"},
		metricDef{"proc.gc_pause_ms_per_op", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.stall_ms_per_s", "ms/s"},
	)
}()

// sizes fixes the input shapes and the repetition counts of a run. The
// benchmark runs fullSize; the package tests run a tiny one.
type sizes struct {
	fitRows, fitCols, fitD, fitIters         int
	serveRows, serveCols, serveD, serveIters int
	// setups is how many times a run sets its workload up; setup_s is the
	// median, which drops a first setup slowed by the process's cold start.
	// The timed window runs on the last setup.
	setups int
	// stall is how long the clock-gap meter spins before the timed window.
	stall time.Duration
	// publishEvery is the serve-online publisher's period.
	publishEvery time.Duration
	// probeBatches and probeCalls shape the traced run's layer probes: the
	// reported figure is the median over batches of the mean call time.
	probeBatches, probeCalls int
}

var fullSize = sizes{
	fitRows: 20000, fitCols: 2000, fitD: 50, fitIters: 5,
	serveRows: 10000, serveCols: 1000, serveD: 50, serveIters: 10,
	setups:       3,
	stall:        time.Second,
	publishEvery: time.Second,
	probeBatches: 31, probeCalls: 200,
}

// options is one invocation of a workload.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	size     sizes
	// workDir holds the run's scratch files (checkpoints, the model
	// registry); spansOut is where a traced run writes its spans.
	workDir, spansOut string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// notes are printed above the result line for a human reader.
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs one named workload.
type workload struct {
	name string
	run  func(*options) (*outcome, error)
}

var workloads = []workload{
	{"fit-spark-sparse", func(o *options) (*outcome, error) { return runFit(o, false) }},
	{"fit-mapreduce-ckpt", func(o *options) (*outcome, error) { return runFit(o, true) }},
	{"serve-online", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and prints its report. It needs the
// checkout root as its working directory: scratch files go to .bench_build.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	o := &options{
		workload: w.name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		size:     fullSize,
		workDir:  workDir,
		spansOut: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)),
	}
	out, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return report(stdout, o, out)
}

// report prints the host, the notes, every metric by name and unit, and the
// result line.
func report(w io.Writer, o *options, out *outcome) error {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(w, "host: %s\n", hostLine())
	fmt.Fprintf(w, "workload %s seed %d traced=%v window %s\n", o.workload, o.seed, o.traced, o.window)
	for _, n := range out.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %s (%d of %d ops)\n", "fail_ratio", failRatio(out.failed, out.attempted), "ratio", out.failed, out.attempted)
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func failRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// layerDefaults returns every per-layer metric at 0, the value a layer the
// workload does not exercise reports.
func layerDefaults() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}
