// Command bench is this repository's benchmark. It drives the simulator
// through its public entry points — the afsimd HTTP service on a loopback
// listener, the afshard coordinator and workers on loopback, and the
// gen.Build → sim.New → Session.Run path afsim takes — under four
// closed-loop workloads, checks every output against a reference, and
// prints every metric by name with its unit.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bench --workload <name|all> --seed S --seconds T [--trace 0|1] [--out report.json] [--spans spans.json]
//	bench compare <parent.json...> -- <change.json...>
//
// The last line of standard output is one JSON object: whether every
// output was correct, how many operations were attempted and failed, and
// the metrics BENCHMARK.json lists — its end_to_end metrics for an
// untraced run, its per_layer metrics for a traced one. The exit code is
// non-zero on any error or output mismatch. See README.md for the
// workloads, the metric definitions and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupRepeats is how many times each run sets its system up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// runLimit bounds one workload run, so a hung system fails the run instead
// of stalling whoever called the benchmark.
const runLimit = 170 * time.Second

// errUnknownWorkload is returned for a workload name the program lacks.
var errUnknownWorkload = errors.New("unknown workload")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames())+" or all")
	seed := fs.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := fs.String("out", "", "write the full report of every workload run to this JSON file")
	spans := fs.String("spans", "", "traced run: write every recorded span to this JSON file")
	config := fs.String("config", "BENCHMARK.json", "benchmark definition to read the metric lists from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need --workload, a positive --seconds and --trace 0 or 1")
		fs.Usage()
		return 2
	}
	if *spans != "" && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --spans needs --trace 1")
		return 2
	}
	cfg, err := loadConfig(*config)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	opt := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		setups: setupRepeats,
		traced: *trace == 1,
	}
	var reports []*report
	var allSpans []span
	code := 0
	for _, n := range names {
		var tr *tracer
		if opt.traced {
			tr = newTracer()
		}
		w, err := newWorkload(n, opt, tr)
		if errors.Is(err, errUnknownWorkload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", n, workloadNames())
			return 2
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		ctx, cancel := context.WithTimeout(context.Background(), runLimit)
		rep, err := runWorkload(ctx, w, opt, tr)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintln(stderr, rep.summary())
		line, err := resultLine(cfg, w, rep)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !rep.Correct {
			code = 1
		}
		reports = append(reports, rep)
		allSpans = append(allSpans, rep.spans...)
	}
	if *out != "" {
		if err := writeJSON(*out, reports); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, allSpans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchConfig is the part of BENCHMARK.json the program reads: which
// workloads exist and which metrics each kind of run prints, with their
// units and regression bounds.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadConfig(path string) (*benchConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var cfg benchConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(cfg.EndToEnd) == 0 || len(cfg.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &cfg, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line of a run: the metrics BENCHMARK.json
// lists for this kind of run. A per-layer metric of a layer the workload
// does not exercise reads 0; any other metric the run did not produce is
// an error, never a silent gap.
func resultLine(cfg *benchConfig, w workload, rep *report) (string, error) {
	defs := cfg.EndToEnd
	if rep.Traced {
		defs = cfg.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			if !rep.Traced || exercises(w, d.Name) {
				return "", fmt.Errorf("run produced no value for metric %s", d.Name)
			}
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	return string(line), err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
