// Command perfbench is the repository benchmark: it runs one workload,
// checks every result against direct summation, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload iter-cube-laplace-20k --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the per-layer probes and prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and the layer each belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
)

// runLimit bounds a whole run: a benchmark that cannot finish in time exits
// non-zero without a result rather than being killed mid-line.
const runLimit = 170 * time.Second

// shape is one evaluation problem: a fixed geometry (sources from seed 1,
// targets from seed 2, the server's convention), a kernel, an accuracy and
// an execution width.
type shape struct {
	dist    points.Distribution
	n       int
	kernel  string // "laplace" or "yukawa"
	lambda  float64
	digits  int
	method  dag.Method
	workers int
}

func (s shape) newKernel() kernel.BatchKernel {
	order := kernel.OrderForDigits(s.digits)
	var k kernel.Kernel
	if s.kernel == "yukawa" {
		k = kernel.NewYukawa(order, s.lambda)
	} else {
		k = kernel.NewLaplace(order)
	}
	return k.(kernel.BatchKernel)
}

// tolerance is the accuracy contract: relative L2 error at most 10^-digits.
func (s shape) tolerance() float64 { return math.Pow(10, -float64(s.digits)) }

// workload is one benchmark input set. Library workloads are a single
// closed-loop caller evaluating one plan for many charge vectors; serve
// workloads drive an in-process server over loopback HTTP.
type workload struct {
	name   string
	shape  shape
	setups int // cold set-ups per untraced run (setup_s is their median)
	// solvesPerDirect is the warm solves timed beside each direct sum, about
	// as many as take the direct sum's time.
	solvesPerDirect int
	serve           bool // serve-mixed traffic instead of the library loop
}

var workloads = []workload{
	{
		name:            "iter-cube-laplace-20k",
		shape:           shape{dist: points.Cube, n: 20000, kernel: "laplace", digits: 3, method: dag.Advanced, workers: 2},
		setups:          3,
		solvesPerDirect: 1,
	},
	{
		// One set-up per run: the cold dense M->L table build takes ~28 s on
		// two cores, and a second one would not fit the run budget.
		name:            "iter-sphere-yukawa-basic-10k",
		shape:           shape{dist: points.Sphere, n: 10000, kernel: "yukawa", lambda: 4, digits: 3, method: dag.Basic, workers: 2},
		setups:          1,
		solvesPerDirect: 4,
	},
	// Run by hand: at ~80 s a run it does not fit the budget of the
	// repeated runs BENCHMARK.json is measured with (see README.md).
	{name: "serve-mixed-2k", shape: serveShape, serve: true},
}

// serveShape is the problem of one serve-mixed request.
var serveShape = shape{dist: points.Cube, n: 2000, kernel: "laplace", digits: 3, method: dag.Advanced, workers: 1}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark run's outcome.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	res     result
	// problems lists why the run is not correct: an accuracy miss, a count
	// that did not repeat, a metric that could not be computed.
	problems []string
}

func newRun(seed int64, seconds time.Duration, trace bool) *run {
	return &run{seed: seed, seconds: seconds, trace: trace,
		res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.wrong("metric %s is not finite", name)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// attempt records one operation; ok=false counts it as failed.
func (r *run) attempt(ok bool) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
	}
}

// wrong marks the run incorrect with a reason.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Correct = false
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: "+msg)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed (charge vectors, request schedule)")
	seconds := flag.Float64("seconds", 6, "measurement window per phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the per-layer probes and prints per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision stamped on the result")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	go func() {
		time.Sleep(runLimit)
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	}()

	printStamp(*name, *commit)
	r := newRun(*seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	var err error
	if w.serve {
		err = runServe(r, w)
	} else {
		err = runLibrary(r, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(r)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// printStamp prints the machine and build stamp as a comment line, so every
// result names the hardware and revision it was measured on.
func printStamp(name, commit string) {
	stamp := map[string]any{
		"workload":   name,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
	b, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// printResult prints one human-readable line per metric, then the JSON
// result as the last line.
func printResult(r *run) {
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Printf("# problem: %s\n", p)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
