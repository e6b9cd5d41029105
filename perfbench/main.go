// Command perfbench is the repository benchmark. It drives the engines
// through their public Go APIs on three workloads — design (the ftsched
// -certify -format json pipeline), campaign (Monte-Carlo fault injection)
// and serve (an in-process ftschedd under open-loop HTTP load) — checks
// every output against digests recorded in golden.json, and prints one
// JSON result line:
//
//	perfbench --workload design --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, read from the benchmark's own spans
// and from fresh obs sinks handed to the engines, and the span trace is
// written under .bench_build/traces/. README.md maps each layer metric to
// the end-to-end metric it should move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"problems_per_s", "problems/s"},
	{"scenarios_per_s", "scenarios/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reports 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	families := func(unit string, names ...string) {
		for _, n := range names {
			for _, fam := range []string{"bus", "p2p"} {
				out = append(out, metricDef{n + "." + fam, unit})
			}
		}
	}
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	families("s", "graph.decode_s", "arch.decode_s", "spec.decode_s")
	families("MB", "spec.input_mb")
	families("s", "core.schedule_s", "core.evaluate_s", "core.commit_s", "core.delayed_edges_s", "core.other_s")
	families("count", "core.steps", "core.evals", "core.cache.hits", "core.gap.searches")
	families("ratio", "core.gap.memo_hit_ratio")
	add("s", "sched.validate_s", "sched.encode_s")
	add("s", "certify.certify_s", "certify.index_s", "certify.baseline_s", "certify.cones_s", "certify.frontier_s")
	add("count", "certify.patterns.checked", "certify.evals.incremental", "certify.fixpoint.rounds", "certify.cone.dirty.hops")
	add("s", "sim.compile_s")
	add("us", "sim.scenario_us")
	add("count", "sim.messages_per_scenario")
	add("us", "sim.us_per_message")
	add("s", "campaign.run_s", "campaign.worker_busy_s")
	add("ratio", "campaign.worker_util")
	add("count", "campaign.blocks.merged")
	add("ratio", "serve.cache_hit_ratio")
	add("count", "serve.singleflight.shared", "serve.engine.schedule", "serve.engine.certify", "serve.engine.simulate")
	add("ms", "serve.engine_ms_mean", "serve.overhead_ms_mean", "serve.hit_latency_p50_ms", "serve.miss_latency_p50_ms")
	add("ms", "load.lag_ms_p99")
	add("count", "load.backlog_max")
	add("%", "obs.trace_overhead_pct")
	return out
}()

// runOpts are the command-line settings of one run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run measured.
type outcome struct {
	v       *verifier
	metrics map[string]float64
	// sizes describes the generated inputs for the run header.
	sizes any
	// samples is the number of latency samples behind the percentiles.
	samples int
	// tr and sinks are the traced run's spans and engine counters.
	tr    *tracer
	sinks map[string]sinkDump
}

// workloads maps each workload name to its runner at the default sizes.
var workloads = map[string]func(runOpts, golden) (*outcome, error){
	"design":   func(o runOpts, g golden) (*outcome, error) { return runDesign(defaultDesign, o, g) },
	"campaign": func(o runOpts, g golden) (*outcome, error) { return runCampaign(defaultCampaign, o, g) },
	"serve":    func(o runOpts, g golden) (*outcome, error) { return runServe(defaultServe, o, g) },
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: design, campaign, or serve")
	seed := fs.Int64("seed", 1, "seed selecting the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	record := fs.String("record", "", "compute the output digests of every input pool entry and write them to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return recordGolden(*record)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want design, campaign, or serve)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		return err
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := wl(o, g)
	if err != nil {
		return err
	}
	return emit(stdout, *name, o, out)
}

// emit writes a finished run: the trace file of a traced run, then the
// header line and the result line on stdout.
func emit(stdout io.Writer, name string, o runOpts, out *outcome) error {
	hdr := header(name, o, out)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := writeTrace(name, o.seed, hdr, out); err != nil {
			return err
		}
	}
	return printResult(stdout, hdr, out, defs)
}

// printResult writes the run header line and then the result line.
func printResult(w io.Writer, hdr map[string]any, out *outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("internal error: metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	h, err := json.Marshal(map[string]any{"header": hdr})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.v.correct(), out.v.attempted.Load(), out.v.failed.Load(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", h, res)
	return err
}

// header records the host and the generated input sizes. It sits outside
// the metrics so that results compare by metric and workload alone.
func header(name string, o runOpts, out *outcome) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"samples":    out.samples,
		"sizes":      out.sizes,
		"errors":     out.v.errors(),
	}
}

// cpuModel reads the processor model name, or "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
