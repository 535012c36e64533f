// Command bench is the repository's benchmark. It simulates the 18-car
// fleet's rig captures from a seed, drives the DP-Reverser pipeline in
// process and the job server over loopback HTTP through four workloads,
// checks every output against a reference result, and prints each metric
// by name and unit. The last line of standard output is one JSON summary.
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh --workload server-closed --seed 1 --seconds 10 --trace 0
//
// --workload all (the default) runs the four workloads in turn. --trace 1
// records spans around every layer call, adds the per-layer pass, writes
// the spans as Chrome-trace JSON and reports the per-layer metrics.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Workload names.
const (
	fleetBatch   = "fleet-batch"
	serverClosed = "server-closed"
	serverOpen   = "server-open"
	serverFlood  = "server-flood"
)

// workloads lists every workload the program runs. BENCHMARK.json gates
// all but server-open, whose median latency moves by a fifth between runs
// on a shared 2-CPU machine (README.md).
var workloads = []string{fleetBatch, serverClosed, serverOpen, serverFlood}

// endToEnd and perLayer name the metrics of the JSON summary line with
// --trace 0 and --trace 1 respectively; BENCHMARK.json lists the same
// names with their units.
var (
	endToEnd = []string{"setup_s", "jobs_per_s", "job_p50_ms", "job_p95_ms", "formula_recovery"}
	perLayer = []string{
		"rig.decode_ms", "rig.decode_alloc_kb", "rig.capture_kb",
		"reverser.assemble_ms", "reverser.extract_ms", "reverser.align_ms",
		"reverser.streams_ms", "reverser.infer_ms", "reverser.reverse_ms",
		"reverser.attributed_ratio", "reverser.alloc_mb_per_capture",
		"reverser.frames", "reverser.messages", "reverser.esv_observations",
		"reverser.streams", "reverser.formula_streams",
		"gp.evaluations", "gp.cache_hit_ratio", "gp.useful_ratio",
		"schema.encode_ms", "schema.result_kb",
		"heap.end_mb", "bench.inputs_s", "trace.overhead_ratio",
	}
)

// options is one benchmark invocation.
type options struct {
	Workloads []string
	Seed      int64
	Seconds   float64
	Trace     bool
	// TraceDir receives one Chrome-trace span file per traced workload.
	TraceDir string
	// Cars restricts the fleet (nil: all 18 cars).
	Cars []string
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	sum, _, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !sum.Correct {
		fmt.Fprintln(os.Stderr, "bench: outputs were wrong or operations failed")
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload: "+strings.Join(workloads, ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed of the captures and the arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured duration per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for the Chrome-trace span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TraceDir: *traceDir}
	switch {
	case *workload == "all":
		o.Workloads = workloads
	case slices.Contains(workloads, *workload):
		o.Workloads = []string{*workload}
	default:
		return options{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.Seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// run measures every workload of o, prints each one's metrics to out and
// ends with the JSON summary line. With several workloads, summary metric
// names carry a "<workload>/" prefix. Progress notes go to logw.
func run(o options, out, logw io.Writer) (summary, []*report, error) {
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	names := endToEnd
	if o.Trace {
		names = perLayer
	}
	var reps []*report
	for _, w := range o.Workloads {
		rep, err := runWorkload(o, w, logw)
		if err != nil {
			return summary{}, nil, fmt.Errorf("%s: %w", w, err)
		}
		reps = append(reps, rep)
		rep.print(out)
		sum.Correct = sum.Correct && rep.correct()
		sum.Attempted += rep.Attempted
		sum.Failed += rep.Failed
		for _, name := range names {
			m, ok := rep.Metrics[name]
			if !ok {
				return summary{}, nil, fmt.Errorf("%s: metric %s was not measured", w, name)
			}
			if len(o.Workloads) > 1 {
				name = w + "/" + name
			}
			sum.Metrics[name] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return summary{}, nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return sum, reps, nil
}
