// Command perfbench is the repository's end-to-end benchmark. It
// generates one named workload from a seed, drives the real pipeline
// through its public entry points, checks every output, and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 a traced run charges each operation to the
// layers it passed through. See README.md for the workloads and the
// metric map.
//
// Usage:
//
//	bash _perfbench/run.sh --workload grid100k --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run uses, so runs on machines with
// more processors stay comparable with the recorded ones.
const procs = 2

// metricDef is one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reduce_s_p50", "s"},
	{"req_per_s", "1/s"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"peak_rss_mb", "MiB"},
	{"max_rel_err", "ratio"},
	{"ok_frac", "ratio"},
}

var perLayer = []metricDef{
	{"netlist.parse_s", "s"},
	{"netlist.write_s", "s"},
	{"stamp.extract_s", "s"},
	{"stamp.stamp_s", "s"},
	{"stamp.assemble_s", "s"},
	{"stamp.realize_s", "s"},
	{"stamp.realized_elems", "count"},
	{"core.transform1_s", "s"},
	{"order.order_s", "s"},
	{"order.symbolic_s", "s"},
	{"chol.factor_s", "s"},
	{"core.moments_s", "s"},
	{"chol.nnz_l", "count"},
	{"chol.factor_gflop", "GFLOP"},
	{"chol.factor_gflop_per_s", "GFLOP/s"},
	{"core.transform2_s", "s"},
	{"core.solves", "count"},
	{"core.matvecs", "count"},
	{"core.poles", "count"},
	{"core.recoveries", "count"},
	{"lanczos.iters", "count"},
	{"lanczos.reorths", "count"},
	{"lanczos.peak_vectors", "count"},
	{"lanczos.op_apply_s", "s"},
	{"lanczos.check_s", "s"},
	{"core.reduce_s", "s"},
	{"core.shift_factor_s", "s"},
	{"core.basis_union_s", "s"},
	{"core.project_s", "s"},
	{"core.basis_columns", "count"},
	{"core.basis_kept", "count"},
	{"service.hits", "count"},
	{"service.misses", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.followers", "count"},
	{"service.evictions", "count"},
	{"service.shed", "count"},
	{"service.hit_ms_p50", "ms"},
	{"service.miss_ms_p50", "ms"},
	{"service.reduce_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// mixWorkload is the service workload's name.
const mixWorkload = "rcfitd-mix"

// workloadNames lists the workloads BENCHMARK.json declares, in its
// order.
func workloadNames() []string {
	var names []string
	for _, w := range reduceWorkloads {
		if !w.extra {
			names = append(names, w.name)
		}
	}
	return append(names, mixWorkload)
}

// extraWorkloadNames lists the workloads that run by name but are not
// declared in BENCHMARK.json.
func extraWorkloadNames() []string {
	var names []string
	for _, w := range reduceWorkloads {
		if w.extra {
			names = append(names, w.name)
		}
	}
	return names
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// log receives the human-readable report lines.
	log io.Writer
}

// report accumulates one run's outcome.
type report struct {
	log       io.Writer
	attempted int
	failed    int
	values    map[string]float64
}

func newReport(log io.Writer) *report {
	return &report{log: log, values: map[string]float64{}}
}

// fail counts one failed operation and says why on the log.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintf(r.log, "FAIL: %v\n", err)
}

// note prints one report line.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := strings.Join(append(workloadNames(), extraWorkloadNames()...), ", ")
	workload := fs.String("workload", "", "workload: "+all)
	seed := fs.Int64("seed", 1, "workload seed: jitters every R and C value and seeds the reduction")
	seconds := fs.Int("seconds", 45, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: out}
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %d s, trace %d\n", *workload, *seed, *seconds, *trace)
	fp, err := json.Marshal(fingerprint())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "fingerprint %s\n", fp)

	ctx := context.Background()
	var rep *report
	switch w, ok := findReduceWorkload(*workload); {
	case ok:
		rep, err = runReduce(ctx, w, cfg)
	case *workload == mixWorkload:
		rep, err = runMix(ctx, cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, all)
		return 2
	}
	if err == nil {
		err = finish(rep, cfg, out)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
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

// finish adds ok_frac and prints the report and the result line: the
// end-to-end metrics, or with tracing the per-layer ones.
func finish(rep *report, cfg config, out io.Writer) error {
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	rep.values["ok_frac"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(out, "metric %-26s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM). A
// workload reads it after its timed operations and before its
// off-clock checks, so that the peak is the operations' own.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// machine is the like-for-like fingerprint every run records, so that
// only runs on comparable machines are compared.
type machine struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibMs    float64 `json:"calib_ms"`
}

func fingerprint() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibMs:    calibrate().Seconds() * 1e3,
	}
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate times a fixed single-threaded loop of integer hashing and
// dependent floating-point multiply-adds; its time tracks the core's
// speed, independent of the code under test.
func calibrate() time.Duration {
	t0 := time.Now()
	h := uint64(14695981039346656037)
	x := 1.0
	for i := 0; i < 40_000_000; i++ {
		h = (h ^ uint64(i)) * 1099511628211
		x = x*0.9999999 + float64(h&1023)*1e-9
	}
	calibSink = x + float64(h>>11)
	return time.Since(t0)
}
