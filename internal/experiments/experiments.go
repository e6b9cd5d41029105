// Package experiments regenerates every figure and analytic claim of the
// paper's evaluation, plus the extended sweeps listed in DESIGN.md §4. Each
// experiment returns a text table comparing measured values against the
// paper's reported ones where the paper gives a number.
//
// The paper resolves ties between equal schedule pressures randomly
// (Section 6.2); the harness therefore reports both the deterministic run
// and the best schedule over a fixed budget of seeded runs (ScheduleTuned),
// the same budget for every heuristic.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/report"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// Seeds is the tie-breaking search budget used by every tuned run.
const Seeds = 50

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID matches DESIGN.md §4 (E01..E17).
	ID string
	// Title says what is reproduced.
	Title string
	// Run executes the experiment and renders its result.
	Run func() (string, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "E01", Title: "Section 5.4: distribution-constraint tables", Run: CostTables},
		{ID: "E02", Title: "Figs. 14-16: step-by-step FT1 heuristic trace", Run: FT1Trace},
		{ID: "E03", Title: "Fig. 17: FT1 schedule on the 3-processor bus (K=1)", Run: Fig17},
		{ID: "E04", Title: "Fig. 18(a): FT1 transient iteration when P2 crashes", Run: Fig18Transient},
		{ID: "E05", Title: "Fig. 18(b): FT1 subsequent iterations with P2 down", Run: Fig18Permanent},
		{ID: "E06", Title: "Fig. 19 / Sec. 6.6: non-fault-tolerant schedule on the bus", Run: Fig19},
		{ID: "E07", Title: "Sec. 6.4: FT1 message minimality", Run: MessageMinimality},
		{ID: "E08", Title: "Fig. 22: FT2 schedule on the point-to-point triangle (K=1)", Run: Fig22},
		{ID: "E09", Title: "Fig. 23: FT2 transient iteration when P2 crashes after A", Run: Fig23},
		{ID: "E10", Title: "Fig. 24 / Sec. 7.4: non-fault-tolerant schedule on the triangle", Run: Fig24},
		{ID: "E11", Title: "Secs. 6.6/7.4: FT1 vs FT2 across architectures (crossover)", Run: ArchCrossover},
		{ID: "E12", Title: "Secs. 6.6/7.4: several failures in one iteration", Run: MultiFailure},
		{ID: "E13", Title: "Extension: failure-free overhead vs K on random DAGs", Run: OverheadVsK},
		{ID: "E14", Title: "Extension: transient response distribution, FT1 vs FT2", Run: TransientResponse},
		{ID: "E15", Title: "Extension: overhead vs communication/computation ratio", Run: CCRSweep},
		{ID: "E16", Title: "Extension: heuristic runtime vs graph size", Run: HeuristicScaling},
		{ID: "E17", Title: "Sec. 8: CyCAB 5-processor CAN-bus vehicle workload", Run: Cycab},
		{ID: "E18", Title: "Ablation: FT1 with bus broadcast disabled", Run: BroadcastAblation},
		{ID: "E19", Title: "Ablation: schedule pressure vs earliest-finish-time", Run: PressureAblation},
		{ID: "E20", Title: "Extension (Sec. 6.1 item 3): intermittent fail-silent outage and re-integration", Run: IntermittentReintegration},
		{ID: "E21", Title: "Extension: worst-case response-time bound over every tolerated failure", Run: WorstCaseResponse},
		{ID: "E22", Title: "Extension: heuristic optimality gap against makespan lower bounds", Run: OptimalityGap},
		{ID: "E23", Title: "Extension: heterogeneous processors demoted to backup duty", Run: Heterogeneity},
	}
}

// RunAll renders every experiment, separated by headers.
func RunAll() (string, error) {
	var b strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&b, "=== %s: %s ===\n", e.ID, e.Title)
		out, err := e.Run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// CostTables prints the Section 5.4 constraint tables round-tripped through
// the spec model.
func CostTables() (string, error) {
	in := paperex.BusInstance()
	var b strings.Builder
	b.WriteString("execution durations (time units, inf = not executable):\n")
	b.WriteString(in.Spec.ExecTable(paperex.OpNames, in.Arch.ProcessorNames()))
	b.WriteString("communication durations (time units):\n")
	b.WriteString(in.Spec.CommTable(edgeKeySlice(in), in.Arch.LinkNames()))
	return b.String(), nil
}

// FT1Trace renders the step-by-step decisions of the FT1 heuristic on the
// paper example, the information of Figs. 14-16.
func FT1Trace() (string, error) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{Trace: true})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("greedy steps (micro-steps mSn.1-mSn.3)",
		"step", "candidates", "selected", "processors (main first)", "main start", "main end")
	for _, st := range r.Trace {
		tb.AddRow(st.Step, strings.Join(st.Candidates, " "), st.Selected,
			strings.Join(st.Procs, " "), st.Start, st.End)
	}
	return tb.String() + "\nfinal schedule:\n" + r.Schedule.Gantt(), nil
}

// Fig17 reproduces the final FT1 schedule on the bus.
func Fig17() (string, error) {
	in := paperex.BusInstance()
	det, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		return "", err
	}
	tuned, err := core.ScheduleTuned(core.FT1, in.Graph, in.Arch, in.Spec, in.K, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("", "quantity", "measured (deterministic)", "measured (tuned)", "paper")
	tb.AddRow("FT1 bus makespan", det.Schedule.Makespan(), tuned.Schedule.Makespan(), paperex.PaperMakespans.FT1Bus)
	tb.AddRow("active inter-proc comms", det.Schedule.NumActiveComms(), tuned.Schedule.NumActiveComms(), "n/a")
	tb.AddRow("passive (timeout) comms", det.Schedule.NumPassiveComms(), tuned.Schedule.NumPassiveComms(), "n/a")
	return tb.String() + "\n" + det.Schedule.Gantt(), nil
}

// fig18 runs the Fig. 18 scenario: P2 crashes at the start of iteration 1.
func fig18() (*sim.Result, *core.Result, error) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sim.Single("P2", 1, 0), sim.Config{Iterations: 3})
	if err != nil {
		return nil, nil, err
	}
	return res, r, nil
}

// Fig18Transient reports the transient iteration after P2's crash.
func Fig18Transient() (string, error) {
	res, r, err := fig18()
	if err != nil {
		return "", err
	}
	normal, transient := res.Iterations[0], res.Iterations[1]
	tb := report.NewTable("P2 crashes at the start of iteration 1",
		"quantity", "failure-free", "transient", "paper claim")
	tb.AddRow("response time", normal.ResponseTime, transient.ResponseTime, "increased by timeout waits")
	tb.AddRow("outputs delivered", normal.Completed, transient.Completed, "true")
	tb.AddRow("timeouts fired", normal.TimeoutsFired, transient.TimeoutsFired, ">= 1")
	tb.AddRow("messages sent", normal.MessagesSent, transient.MessagesSent, "does not increase")
	tb.AddRow("static makespan", r.Schedule.Makespan(), "", "9.4")
	return tb.String(), nil
}

// Fig18Permanent reports the subsequent iterations with P2 down.
func Fig18Permanent() (string, error) {
	res, _, err := fig18()
	if err != nil {
		return "", err
	}
	normal, transient, perm := res.Iterations[0], res.Iterations[1], res.Iterations[2]
	tb := report.NewTable("subsequent iteration with P2 detected faulty",
		"quantity", "failure-free", "transient", "permanent", "paper claim")
	tb.AddRow("response time", normal.ResponseTime, transient.ResponseTime, perm.ResponseTime, "timeout waits disappear")
	tb.AddRow("timeouts fired", normal.TimeoutsFired, transient.TimeoutsFired, perm.TimeoutsFired, "0 after detection")
	tb.AddRow("messages sent", normal.MessagesSent, transient.MessagesSent, perm.MessagesSent, "<= failure-free")
	return tb.String(), nil
}

// Fig19 reproduces the non-fault-tolerant bus schedule and the FT1 overhead
// of Section 6.6.
func Fig19() (string, error) {
	in := paperex.BusInstance()
	det, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		return "", err
	}
	tuned, err := core.ScheduleTuned(core.Basic, in.Graph, in.Arch, in.Spec, 0, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	ft1, err := core.ScheduleTuned(core.FT1, in.Graph, in.Arch, in.Spec, in.K, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("", "quantity", "measured (deterministic)", "measured (tuned)", "paper")
	tb.AddRow("basic bus makespan", det.Schedule.Makespan(), tuned.Schedule.Makespan(), paperex.PaperMakespans.BasicBus)
	tb.AddRow("FT1 overhead (vs tuned basic)", "", ft1.Schedule.Makespan()-tuned.Schedule.Makespan(), 0.8)
	return tb.String() + "\n" + tuned.Schedule.Gantt(), nil
}

// MessageMinimality verifies Section 6.4's analysis on the paper instance.
func MessageMinimality() (string, error) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		return "", err
	}
	perEdge := map[string]int{}
	for _, l := range r.Schedule.Links() {
		for _, c := range r.Schedule.LinkSlots(l) {
			if !c.Passive {
				perEdge[c.Edge.String()]++
			}
		}
	}
	tb := report.NewTable("active transfers per data-dependency (bound: K+1 = 2; bus broadcast gives 1)",
		"dependency", "active transfers", "bound respected")
	for _, e := range in.Graph.Edges() {
		n := perEdge[e.Key().String()]
		tb.AddRow(e.Key().String(), n, n <= in.K+1)
	}
	return tb.String(), nil
}

// Fig22 reproduces the FT2 schedule on the triangle.
func Fig22() (string, error) {
	in := paperex.TriangleInstance()
	det, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		return "", err
	}
	tuned, err := core.ScheduleTuned(core.FT2, in.Graph, in.Arch, in.Spec, in.K, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("", "quantity", "measured (deterministic)", "measured (tuned)", "paper")
	tb.AddRow("FT2 triangle makespan", det.Schedule.Makespan(), tuned.Schedule.Makespan(), paperex.PaperMakespans.FT2Triangle)
	tb.AddRow("active inter-proc comms", det.Schedule.NumActiveComms(), tuned.Schedule.NumActiveComms(), "n/a")
	tb.AddRow("passive comms", det.Schedule.NumPassiveComms(), tuned.Schedule.NumPassiveComms(), "0")
	return tb.String() + "\n" + det.Schedule.Gantt(), nil
}

// Fig23 reproduces the FT2 transient behavior: P2 crashes right after
// executing A; no timeouts, the late replicas' results are discarded.
func Fig23() (string, error) {
	in := paperex.TriangleInstance()
	r, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		return "", err
	}
	aEnd := 0.0
	if rep := r.Schedule.ReplicaOn("A", "P2"); rep != nil {
		aEnd = rep.End
	}
	res, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sim.Single("P2", 1, aEnd), sim.Config{Iterations: 3})
	if err != nil {
		return "", err
	}
	normal, transient, perm := res.Iterations[0], res.Iterations[1], res.Iterations[2]
	tb := report.NewTable(fmt.Sprintf("P2 crashes at t=%s (right after its replica of A)", report.Cell(aEnd)),
		"quantity", "failure-free", "transient", "permanent", "paper claim")
	tb.AddRow("response time", normal.ResponseTime, transient.ResponseTime, perm.ResponseTime, "no timeout waits")
	tb.AddRow("outputs delivered", normal.Completed, transient.Completed, perm.Completed, "true")
	tb.AddRow("timeouts fired", normal.TimeoutsFired, transient.TimeoutsFired, perm.TimeoutsFired, "0 (no timeouts at all)")
	tb.AddRow("messages sent", normal.MessagesSent, transient.MessagesSent, perm.MessagesSent, "useless comms disappear")
	return tb.String(), nil
}

// Fig24 reproduces the non-fault-tolerant triangle schedule and the FT2
// overhead of Section 7.4.
func Fig24() (string, error) {
	in := paperex.TriangleInstance()
	det, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		return "", err
	}
	tuned, err := core.ScheduleTuned(core.Basic, in.Graph, in.Arch, in.Spec, 0, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	ft2, err := core.ScheduleTuned(core.FT2, in.Graph, in.Arch, in.Spec, in.K, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("", "quantity", "measured (deterministic)", "measured (tuned)", "paper")
	tb.AddRow("basic triangle makespan", det.Schedule.Makespan(), tuned.Schedule.Makespan(), paperex.PaperMakespans.BasicP2P)
	tb.AddRow("FT2 overhead (vs tuned basic)", "", ft2.Schedule.Makespan()-tuned.Schedule.Makespan(), 0.9)
	return tb.String() + "\n" + tuned.Schedule.Gantt(), nil
}

// ArchCrossover backs the paper's architectural guidance: FT1's
// communication load is low on a bus and FT2's is low on point-to-point
// links, and each solution wins on the architecture it targets.
func ArchCrossover() (string, error) {
	busIn := paperex.BusInstance()
	triIn := paperex.TriangleInstance()
	tb := report.NewTable("both FT heuristics on both architectures (K=1, tuned)",
		"architecture", "heuristic", "makespan", "active comms", "total comm time")
	for _, row := range []struct {
		name string
		in   *paperex.Instance
		h    core.Heuristic
	}{
		{"bus", busIn, core.FT1},
		{"bus", busIn, core.FT2},
		{"triangle", triIn, core.FT1},
		{"triangle", triIn, core.FT2},
	} {
		r, err := core.ScheduleTuned(row.h, row.in.Graph, row.in.Arch, row.in.Spec, 1, Seeds, core.Options{})
		if err != nil {
			return "", err
		}
		tb.AddRow(row.name, row.h.String(), r.Schedule.Makespan(),
			r.Schedule.NumActiveComms(), r.Schedule.TotalActiveCommTime())
	}
	return tb.String(), nil
}

// MultiFailure compares the two solutions under two simultaneous failures
// (K=2 on a 4-processor architecture carrying both a bus and a full mesh).
func MultiFailure() (string, error) {
	in, err := quadInstance()
	if err != nil {
		return "", err
	}
	tb := report.NewTable("two simultaneous failures (P1 and P2 at t=0), K=2",
		"heuristic", "failure-free response", "2-failure response", "timeouts", "outputs delivered")
	for _, h := range []core.Heuristic{core.FT1, core.FT2} {
		r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, 2, core.Options{})
		if err != nil {
			return "", err
		}
		free, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sim.Scenario{}, sim.Config{})
		if err != nil {
			return "", err
		}
		sc := sim.Scenario{Failures: []sim.Failure{
			{Proc: "P1", Iteration: 0, At: 0},
			{Proc: "P2", Iteration: 0, At: 0},
		}}
		res, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sc, sim.Config{})
		if err != nil {
			return "", err
		}
		ir := res.Iterations[0]
		tb.AddRow(h.String(), free.Iterations[0].ResponseTime, ir.ResponseTime, ir.TimeoutsFired, ir.Completed)
	}
	return tb.String(), nil
}

// OverheadVsK sweeps K on random layered DAGs over bus and mesh
// architectures, reporting mean failure-free overhead ratios.
func OverheadVsK() (string, error) {
	const (
		nProcs  = 4
		nOps    = 16
		samples = 5
	)
	tb := report.NewTable(
		fmt.Sprintf("mean makespan ratio vs non-FT baseline (%d random DAGs of %d ops, %d processors)", samples, nOps, nProcs),
		"architecture", "heuristic", "K=1", "K=2", "K=3")
	for _, busArch := range []bool{true, false} {
		archName := "bus"
		h := core.FT1
		if !busArch {
			archName = "mesh"
			h = core.FT2
		}
		ratios := map[int][]float64{}
		for s := 0; s < samples; s++ {
			r := rand.New(rand.NewSource(int64(1000 + s)))
			in, err := workload.RandomInstance(r, nOps, nProcs, busArch, 0.8)
			if err != nil {
				return "", err
			}
			base, err := core.ScheduleTuned(core.Basic, in.Graph, in.Arch, in.Spec, 0, 10, core.Options{})
			if err != nil {
				return "", err
			}
			for k := 1; k <= 3; k++ {
				ft, err := core.ScheduleTuned(h, in.Graph, in.Arch, in.Spec, k, 10, core.Options{})
				if err != nil {
					return "", err
				}
				ratios[k] = append(ratios[k], ft.Schedule.Makespan()/base.Schedule.Makespan())
			}
		}
		tb.AddRow(archName, h.String(),
			report.Summarize(ratios[1]).Mean,
			report.Summarize(ratios[2]).Mean,
			report.Summarize(ratios[3]).Mean)
	}
	return tb.String(), nil
}

// TransientResponse sweeps every single failure over random instances and
// compares the transient response-time inflation of FT1 and FT2.
func TransientResponse() (string, error) {
	const samples = 4
	tb := report.NewTable("transient response inflation over every (processor x 4 crash dates), K=1",
		"heuristic", "architecture", "mean inflation", "max inflation", "timeouts/run")
	for _, cfg := range []struct {
		h   core.Heuristic
		bus bool
	}{{core.FT1, true}, {core.FT2, false}} {
		var inflations []float64
		var timeouts []float64
		for s := 0; s < samples; s++ {
			r := rand.New(rand.NewSource(int64(2000 + s)))
			in, err := workload.RandomInstance(r, 12, 3, cfg.bus, 0.8)
			if err != nil {
				return "", err
			}
			sr, err := core.Schedule(cfg.h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
			if err != nil {
				return "", err
			}
			free, err := sim.Simulate(sr.Schedule, in.Graph, in.Arch, in.Spec, sim.Scenario{}, sim.Config{})
			if err != nil {
				return "", err
			}
			base := free.Iterations[0].ResponseTime
			for _, sc := range sim.SingleSweep(in.Arch, sr.Schedule.Makespan(), 4) {
				res, err := sim.Simulate(sr.Schedule, in.Graph, in.Arch, in.Spec, sc, sim.Config{})
				if err != nil {
					return "", err
				}
				ir := res.Iterations[0]
				if !ir.Completed {
					return "", fmt.Errorf("K=1 schedule lost outputs under %+v", sc.Failures[0])
				}
				inflations = append(inflations, ir.ResponseTime/base)
				timeouts = append(timeouts, float64(ir.TimeoutsFired))
			}
		}
		archName := "bus"
		if !cfg.bus {
			archName = "mesh"
		}
		st := report.Summarize(inflations)
		tb.AddRow(cfg.h.String(), archName, st.Mean, st.Max, report.Summarize(timeouts).Mean)
	}
	return tb.String(), nil
}

// CCRSweep reports FT overhead across communication/computation ratios.
func CCRSweep() (string, error) {
	ccrs := []float64{0.1, 0.5, 1, 2, 5}
	tb := report.NewTable("mean FT makespan ratio vs baseline across CCR (K=1, 3 random DAGs each)",
		"ccr", "ft1/basic on bus", "ft2/basic on mesh")
	for _, ccr := range ccrs {
		var busRatio, meshRatio []float64
		for s := 0; s < 3; s++ {
			r := rand.New(rand.NewSource(int64(3000 + s)))
			busIn, err := workload.RandomInstance(r, 12, 3, true, ccr)
			if err != nil {
				return "", err
			}
			meshIn, err := workload.RandomInstance(r, 12, 3, false, ccr)
			if err != nil {
				return "", err
			}
			b1, err := core.ScheduleTuned(core.Basic, busIn.Graph, busIn.Arch, busIn.Spec, 0, 10, core.Options{})
			if err != nil {
				return "", err
			}
			f1, err := core.ScheduleTuned(core.FT1, busIn.Graph, busIn.Arch, busIn.Spec, 1, 10, core.Options{})
			if err != nil {
				return "", err
			}
			b2, err := core.ScheduleTuned(core.Basic, meshIn.Graph, meshIn.Arch, meshIn.Spec, 0, 10, core.Options{})
			if err != nil {
				return "", err
			}
			f2, err := core.ScheduleTuned(core.FT2, meshIn.Graph, meshIn.Arch, meshIn.Spec, 1, 10, core.Options{})
			if err != nil {
				return "", err
			}
			busRatio = append(busRatio, f1.Schedule.Makespan()/b1.Schedule.Makespan())
			meshRatio = append(meshRatio, f2.Schedule.Makespan()/b2.Schedule.Makespan())
		}
		tb.AddRow(ccr, report.Summarize(busRatio).Mean, report.Summarize(meshRatio).Mean)
	}
	return tb.String(), nil
}

// HeuristicScaling measures scheduling time against graph size.
func HeuristicScaling() (string, error) {
	sizes := []int{25, 50, 100, 200}
	tb := report.NewTable("wall-clock per schedule (4-processor bus, single deterministic run)",
		"ops", "basic", "ft1 (K=1)", "ft2 (K=1)")
	for _, n := range sizes {
		r := rand.New(rand.NewSource(int64(n)))
		in, err := workload.RandomInstance(r, n, 4, true, 0.8)
		if err != nil {
			return "", err
		}
		times := make([]string, 0, 3)
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			start := time.Now()
			if _, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, 1, core.Options{}); err != nil {
				return "", err
			}
			times = append(times, time.Since(start).Round(time.Microsecond).String())
		}
		tb.AddRow(n, times[0], times[1], times[2])
	}
	return tb.String(), nil
}

// Cycab schedules a control loop on the conclusion's 5-processor CAN-bus
// vehicle and exercises a failover of the vision processor.
func Cycab() (string, error) {
	g, err := workload.ControlLoop(3, 2)
	if err != nil {
		return "", err
	}
	a, err := workload.Cycab()
	if err != nil {
		return "", err
	}
	r := rand.New(rand.NewSource(42))
	sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.4, CCR: 0.5})
	if err != nil {
		return "", err
	}
	if err := workload.RestrictExtIOs(sp, g, a, 2); err != nil {
		return "", err
	}
	base, err := core.ScheduleTuned(core.Basic, g, a, sp, 0, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	ft, err := core.ScheduleTuned(core.FT1, g, a, sp, 1, Seeds, core.Options{})
	if err != nil {
		return "", err
	}
	res, err := sim.Simulate(ft.Schedule, g, a, sp, sim.Single("vision", 1, 1.0), sim.Config{Iterations: 3})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("CyCAB control loop (3 sensors, 2 actuators, state) on 5 processors + CAN",
		"quantity", "value")
	tb.AddRow("basic makespan", base.Schedule.Makespan())
	tb.AddRow("ft1 makespan (K=1)", ft.Schedule.Makespan())
	tb.AddRow("overhead", ft.Schedule.Overhead(base.Schedule))
	tb.AddRow("transient response (vision fails)", res.Iterations[1].ResponseTime)
	tb.AddRow("transient outputs delivered", res.Iterations[1].Completed)
	tb.AddRow("permanent response", res.Iterations[2].ResponseTime)
	tb.AddRow("permanent outputs delivered", res.Iterations[2].Completed)
	return tb.String(), nil
}

// quadInstance is the 4-processor instance used by MultiFailure.
func quadInstance() (*workload.Instance, error) {
	g := paperex.Algorithm()
	a, err := workload.FullMesh(4)
	if err != nil {
		return nil, err
	}
	if err := a.AddBus("can", a.ProcessorNames()...); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(7))
	sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 1.5, Spread: 0.3, CCR: 0.5})
	if err != nil {
		return nil, err
	}
	return &workload.Instance{Graph: g, Arch: a, Spec: sp}, nil
}

// edgeKeySlice returns the instance's dependency keys in the paper's order.
func edgeKeySlice(in *paperex.Instance) []graph.EdgeKey {
	edges := in.Graph.Edges()
	out := make([]graph.EdgeKey, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.Key())
	}
	return out
}
