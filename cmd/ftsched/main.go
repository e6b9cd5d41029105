// Command ftsched produces a fault-tolerant static distributed schedule for
// an algorithm graph on an architecture, in the style of the SynDEx tool.
//
// Inputs are JSON files (see the examples/ directory for the format):
//
//	ftsched -graph g.json -arch a.json -spec s.json -heuristic ft1 -k 1
//
// Without input files, -demo schedules the paper's worked example.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ftsched/internal/certify"
	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/report"
	"ftsched/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftsched", flag.ContinueOnError)
	problem := cli.ProblemFlags(fs)
	var (
		heuristic   = fs.String("heuristic", "ft1", "scheduler: basic, ft1, or ft2")
		k           = fs.Int("k", 1, "number of fail-stop processor failures to tolerate")
		seeds       = fs.Int("seeds", 0, "extra randomized tie-breaking runs; the best schedule wins")
		format      = fs.String("format", "gantt", "output: gantt, table, json, chain, svg, or dot")
		degraded    = fs.Bool("degraded", false, "allow fewer than K+1 replicas where constraints forbid them")
		steps       = fs.Bool("steps", false, "print the heuristic's greedy steps (the paper's Figs. 14-16)")
		doCertify   = fs.Bool("certify", false, "statically certify the schedule against K failures; exit non-zero on rejection")
		certWorkers = fs.Int("certify-workers", 0, "certifier worker-pool bound; 0 uses GOMAXPROCS, 1 is sequential (the verdict is identical at any value)")

		tracePath = fs.String("trace", "", "write a Chrome-trace JSON (build-phase spans + schedule Gantt) to this file; open in Perfetto")
		stats     = fs.Bool("stats", false, "print the observability counters and timers after the run")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFlagCombos(fs, *format); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ftsched: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ftsched: memprofile:", err)
			}
		}()
	}

	// The sink is created only when an exporter will consume it, so plain
	// scheduling runs keep the zero-cost disabled path.
	var sink *obs.Sink
	if *tracePath != "" || *stats {
		sink = obs.NewSink()
	}

	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}

	g, a, sp, err := problem.Load(h)
	if err != nil {
		return err
	}

	opts := core.Options{AllowDegraded: *degraded, Trace: *steps, Obs: sink}
	res, err := core.ScheduleTuned(h, g, a, sp, *k, *seeds, opts)
	if err != nil {
		return err
	}
	if *steps {
		for _, st := range res.Trace {
			fmt.Fprintf(out, "step %d: candidates %s -> %s on %s [%s, %s]\n",
				st.Step, strings.Join(st.Candidates, " "), st.Selected,
				strings.Join(st.Procs, " "), report.Cell(st.Start), report.Cell(st.End))
		}
	}
	var cert *certify.Verdict
	if *doCertify {
		// CertifyWith validates the schedule as it compiles it.
		cert, err = certify.CertifyWith(res.Schedule, g, a, sp, *k, certify.Options{Workers: *certWorkers, Obs: sink})
		if err != nil {
			return err
		}
	} else if err := res.Schedule.Validate(g, a, sp); err != nil {
		return fmt.Errorf("internal error, schedule failed validation: %w", err)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, sink, res.Schedule); err != nil {
			return err
		}
	}
	switch *format {
	case "gantt":
		fmt.Fprint(out, res.Schedule.Gantt())
	case "table":
		fmt.Fprint(out, res.Schedule.Table())
	case "json":
		data, err := res.Schedule.MarshalJSON()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			return err
		}
		buf.WriteByte('\n')
		if _, err := out.Write(buf.Bytes()); err != nil {
			return err
		}
		return certifyOutcome(cert) // the summary line would corrupt the JSON stream
	case "dot":
		fmt.Fprint(out, g.DOT())
	case "chain":
		fmt.Fprint(out, sched.RenderChain(res.Schedule.CriticalChain()))
	case "svg":
		fmt.Fprint(out, res.Schedule.SVG())
		return certifyOutcome(cert) // keep the SVG stream clean
	default:
		return fmt.Errorf("unknown format %q (want gantt, table, json, chain, svg, or dot)", *format)
	}
	fmt.Fprintf(out, "makespan: %.6g, op slots: %d, active comms: %d, passive comms: %d, min replication: %d\n",
		res.Schedule.Makespan(), res.Schedule.NumOpSlots(),
		res.Schedule.NumActiveComms(), res.Schedule.NumPassiveComms(), res.MinReplication)
	if cert != nil {
		fmt.Fprint(out, cert.Report())
	}
	if *stats {
		obs.WriteStats(out, sink)
	}
	return certifyOutcome(cert)
}

// checkFlagCombos rejects contradictory flag combinations with a usage error
// instead of silently ignoring the losing flag. Only flags the user actually
// set are considered.
func checkFlagCombos(fs *flag.FlagSet, format string) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["certify-workers"] && !set["certify"] {
		return fmt.Errorf("usage: -certify-workers requires -certify")
	}
	if set["stats"] && (format == "json" || format == "svg") {
		return fmt.Errorf("usage: -stats would corrupt the -format %s stream; use -trace or a text format", format)
	}
	return nil
}

// writeTrace writes the Chrome-trace document for a scheduling run.
func writeTrace(path string, sink *obs.Sink, s *sched.Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, sink, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// certifyOutcome turns a rejected certificate into the command's error so
// -certify gates the exit status.
func certifyOutcome(cert *certify.Verdict) error {
	if cert != nil && !cert.Certified {
		return fmt.Errorf("certification rejected the schedule for K=%d failures", cert.K)
	}
	return nil
}
