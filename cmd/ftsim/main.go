// Command ftsim schedules a problem and simulates its distributed executive
// under fail-stop processor failures:
//
//	ftsim -demo -heuristic ft1 -k 1 -fail P2@1:0 -iterations 3
//
// Failures are given as proc@iteration:time and may repeat for multiple
// simultaneous or staggered failures.
//
// With -campaign N it instead runs a Monte-Carlo fault campaign of N
// seed-derived scenarios against the compiled schedule and prints the
// deterministic report:
//
//	ftsim -demo -heuristic ft1 -k 1 -campaign 100000 -campaign-mix failstop=0.7,burst=0.3
//
// With -replay it re-executes a worst-offender record retained by a prior
// campaign, with a full per-iteration trace:
//
//	ftsim -demo -heuristic ft1 -k 1 -replay offender.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/report"
	"ftsched/internal/rt"
	"ftsched/internal/sim"
)

// failList collects repeated -fail flags.
type failList []sim.Failure

func (f *failList) String() string { return fmt.Sprint(*f) }

// Set parses proc@iteration:time for a permanent failure, or
// proc@iteration:time~iteration:time for an intermittent fail-silent outage
// with a recovery point.
func (f *failList) Set(v string) error {
	at := strings.Split(v, "@")
	if len(at) != 2 {
		return fmt.Errorf("failure %q: want proc@iteration:time[~iteration:time]", v)
	}
	spans := strings.Split(at[1], "~")
	if len(spans) > 2 {
		return fmt.Errorf("failure %q: at most one recovery point", v)
	}
	iter, t, err := parsePoint(spans[0])
	if err != nil {
		return fmt.Errorf("failure %q: %w", v, err)
	}
	fail := sim.Failure{Proc: at[0], Iteration: iter, At: t}
	if len(spans) == 2 {
		rIter, rT, err := parsePoint(spans[1])
		if err != nil {
			return fmt.Errorf("failure %q: recovery: %w", v, err)
		}
		fail.RecoverIteration, fail.RecoverAt = rIter, rT
	}
	*f = append(*f, fail)
	return nil
}

// parsePoint parses "iteration:time".
func parsePoint(s string) (int, float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want iteration:time, got %q", s)
	}
	iter, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad iteration: %w", err)
	}
	t, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time: %w", err)
	}
	return iter, t, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftsim", flag.ContinueOnError)
	problem := cli.ProblemFlags(fs)
	var fails failList
	var (
		heuristic  = fs.String("heuristic", "ft1", "scheduler: basic, ft1, or ft2")
		k          = fs.Int("k", 1, "number of failures to tolerate")
		seeds      = fs.Int("seeds", 0, "extra randomized tie-breaking runs")
		iterations = fs.Int("iterations", 3, "iterations of the reactive loop to simulate")
		gantt      = fs.Bool("gantt", false, "also print the static schedule")
		trace      = fs.Bool("trace", false, "print each iteration's executed activities")
		deadline   = fs.Float64("deadline", 0, "real-time constraint checked per iteration (0 = none)")
		worst      = fs.Bool("worstcase", false, "exhaustively bound the response time over every tolerated failure instead of simulating -fail")
		replayPath = fs.String("replay", "", "re-execute a campaign worst-offender record (JSON file) with a full trace")
	)
	var cf campaignFlags
	fs.Int64Var(&cf.n, "campaign", 0, "run a Monte-Carlo fault campaign of this many scenarios instead of simulating -fail")
	fs.Int64Var(&cf.seed, "campaign-seed", 1, "campaign base seed; scenario i depends only on (seed, i)")
	fs.IntVar(&cf.workers, "campaign-workers", 0, "campaign worker pool size (0 = GOMAXPROCS; the report is identical at any value)")
	fs.StringVar(&cf.mix, "campaign-mix", "", "scenario class weights, e.g. failstop=0.7,burst=0.3 (default pure failstop)")
	fs.IntVar(&cf.maxFaults, "campaign-maxfaults", 1, "maximum failures per scenario")
	fs.IntVar(&cf.retain, "campaign-retain", 3, "worst-offender replay records to retain")
	fs.BoolVar(&cf.jsonOut, "campaign-json", false, "emit the campaign report as canonical JSON instead of text")
	fs.StringVar(&cf.outPath, "campaign-out", "", "write the campaign JSON report to this file")
	fs.Var(&fails, "fail", "failure as proc@iteration:time (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.n > 0 && *replayPath != "" {
		return fmt.Errorf("-campaign and -replay are mutually exclusive")
	}
	if (cf.n > 0 || *replayPath != "") && (len(fails) > 0 || *worst) {
		return fmt.Errorf("-campaign/-replay cannot be combined with -fail or -worstcase")
	}

	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}

	g, a, sp, err := problem.Load(h)
	if err != nil {
		return err
	}

	res, err := core.ScheduleTuned(h, g, a, sp, *k, *seeds, core.Options{})
	if err != nil {
		return err
	}
	if *gantt {
		fmt.Fprint(out, res.Schedule.Gantt())
	}
	if cf.n > 0 || *replayPath != "" {
		m, err := sim.Compile(res.Schedule, g, a, sp)
		if err != nil {
			return err
		}
		if cf.n > 0 {
			return runCampaign(m, cf, *iterations, *k, *deadline, out)
		}
		return runReplay(m, *replayPath, out)
	}
	if *worst {
		an, err := rt.Analyze(res.Schedule, g, a, sp, *k)
		if err != nil {
			return err
		}
		tb := report.NewTable(fmt.Sprintf("worst-case analysis, %s schedule, K=%d", h, *k),
			"quantity", "value")
		tb.AddRow("failure-free response", an.FailureFree)
		tb.AddRow("worst transient response", an.WorstTransient)
		tb.AddRow("worst permanent response", an.WorstPermanent)
		tb.AddRow("scenarios checked", an.ScenariosChecked)
		tb.AddRow("all outputs delivered", an.AllDelivered)
		if *deadline > 0 {
			tb.AddRow(fmt.Sprintf("meets deadline %g", *deadline), an.MeetsDeadline(*deadline))
		}
		fmt.Fprint(out, tb.String())
		return nil
	}
	sr, err := sim.Simulate(res.Schedule, g, a, sp, sim.Scenario{Failures: fails},
		sim.Config{Iterations: *iterations, Deadline: *deadline, Trace: *trace})
	if err != nil {
		return err
	}
	headers := []string{"iteration", "transient", "response", "end", "outputs ok", "messages", "timeouts", "false detections"}
	if *deadline > 0 {
		headers = append(headers, "deadline met")
	}
	tb := report.NewTable(fmt.Sprintf("%s schedule, K=%d, %d failure(s) injected", h, *k, len(fails)), headers...)
	for _, ir := range sr.Iterations {
		row := []any{ir.Index, ir.Transient, ir.ResponseTime, ir.End, ir.Completed,
			ir.MessagesSent, ir.TimeoutsFired, ir.FalseDetections}
		if *deadline > 0 {
			row = append(row, ir.DeadlineMet)
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(out, tb.String())
	if *trace {
		for _, ir := range sr.Iterations {
			fmt.Fprintf(out, "--- iteration %d trace ---\n%s", ir.Index, sim.RenderTrace(ir.Trace))
		}
	}
	if len(sr.FailedProcs) > 0 {
		fmt.Fprintf(out, "failed processors: %s; detected: %s",
			strings.Join(sr.FailedProcs, " "), strings.Join(sr.DetectedProcs, " "))
		if len(sr.RecoveredProcs) > 0 {
			fmt.Fprintf(out, "; recovered: %s", strings.Join(sr.RecoveredProcs, " "))
		}
		fmt.Fprintln(out)
	}
	return nil
}
