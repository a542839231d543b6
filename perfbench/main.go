// Command perfbench is the repository benchmark: it measures how many
// fault-space points a hardware-assisted fault-injection campaign gives a
// verdict per host second, end to end and layer by layer, and checks every
// verdict it measures.
//
// It runs one named workload per invocation, from the repository root:
//
//	bash perfbench/run.sh --workload campaign-avr-seu --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics and a Perfetto-loadable trace is written. README.md in this
// directory documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// DefaultSeed is the pinned workload seed: its campaign verdicts are
// checked point by point against the committed scalar-oracle reference.
const DefaultSeed = 1

// HeldOutSeed is the seed reserved for checking a performance claim on
// inputs not used while the change was written.
const HeldOutSeed = 20261017

// Workers is the campaign-engine and MATE-search worker count of every
// workload, and the GOMAXPROCS of every run, pinned so that no run uses
// more threads than the two-vCPU reference machine has, whatever the host.
const Workers = 2

// Lanes is the lane width of every batched device instance.
const Lanes = 256

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// exitCode is the process status for a result: any failed operation makes
// the command fail.
func (r *result) exitCode() int {
	if r.Failed > 0 || !r.Correct || r.Attempted < 1 {
		return 1
	}
	return 0
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	tmpDir   string
	stdout   io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", DefaultSeed, "workload seed (fault-list cycles and verification sample)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "Perfetto trace file for --trace 1 (default .bench_build/traces/trace-<workload>-<seed>.json)")
	writeRef := fs.Bool("write-reference", false, "recompute the pinned default-seed verdict reference of a campaign workload on the scalar oracle and write it under perfbench/reference")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// prune.Evaluate and prune.SelectTopN start one goroutine per CPU;
	// capping the scheduler keeps them, and the collector, on Workers
	// threads.
	runtime.GOMAXPROCS(Workers)
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d out of range (want 0 or 1)\n", *traceFlag)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %g out of range (want >= 0)\n", *seconds)
		return 2
	}
	// The benchmark reads the committed sources it measures; refuse to run
	// anywhere else rather than measure nothing.
	if _, err := os.Stat(filepath.Join("internal", "hafi")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	// Journals and oracle scratch files stay inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		traceOut: *traceOut,
		tmpDir:   tmp,
		stdout:   stdout,
	}
	if opts.trace && opts.traceOut == "" {
		opts.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-%d.json", opts.workload, opts.seed))
	}
	if *writeRef {
		if err := buildReference(w, opts); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	printMeta(stdout, opts)
	res, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if code := res.exitCode(); code != 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed\n", opts.workload, res.Failed, res.Attempted)
		return code
	}
	return 0
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(opts options) (*result, error)
	// spec is set for campaign workloads (nil for analysis-mates).
	spec *campaignSpec
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
