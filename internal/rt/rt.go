// Package rt analyzes the real-time behavior of a fault-tolerant schedule:
// it bounds the response time over every tolerated failure scenario by
// exhaustive simulation, producing the evidence that the schedule satisfies
// its real-time constraint ("the obtained distributed executive is
// guaranteed to satisfy the real-time constraints", Section 4.1, extended
// here to the faulty executions of Sections 6 and 7).
//
// The simulator's virtual time is deterministic, and a fail-stop failure
// only changes the execution when it crosses an activity boundary, so
// sweeping the crash date over the schedule's event boundaries (plus the
// points just after each boundary) covers every distinct behavior of a
// single failure; K-subset sweeps cover simultaneous failures.
package rt

import (
	"fmt"
	"math"
	"sort"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// Analysis bounds the response time of a schedule under failures.
type Analysis struct {
	// FailureFree is the response time with no failures.
	FailureFree float64
	// WorstTransient is the largest response time over every simulated
	// failure scenario, measured in the iteration where the failure occurs.
	WorstTransient float64
	// WorstPermanent is the largest response time over the iterations after
	// detection (the degraded steady state).
	WorstPermanent float64
	// WorstScenario is a scenario attaining WorstTransient.
	WorstScenario sim.Scenario
	// ScenariosChecked counts the simulated failure scenarios.
	ScenariosChecked int
	// AllDelivered reports whether every scenario delivered every output in
	// every iteration.
	AllDelivered bool
}

// MeetsDeadline reports whether every checked execution, failure-free and
// faulty, responds within d.
func (a *Analysis) MeetsDeadline(d float64) bool {
	return a.AllDelivered && a.FailureFree <= d+1e-9 &&
		a.WorstTransient <= d+1e-9 && a.WorstPermanent <= d+1e-9
}

// Analyze sweeps every failure scenario of up to K processors crashing
// simultaneously (plus, for K >= 1, each single-processor crash at every
// event boundary) and reports response-time bounds. K = 0 checks only the
// failure-free execution. The schedule is compiled once and every scenario
// runs on one sim.Runner.
func Analyze(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int) (*Analysis, error) {
	if k < 0 {
		return nil, fmt.Errorf("rt: negative K")
	}
	m, err := sim.Compile(s, g, a, sp)
	if err != nil {
		return nil, err
	}
	return analyze(s, a, k, m.NewRunner().Run)
}

// analyze is Analyze's sweep, simulating each scenario with run.
func analyze(s *sched.Schedule, a *arch.Architecture, k int, run func(sim.Scenario, sim.Config) (*sim.Result, error)) (*Analysis, error) {
	res := &Analysis{AllDelivered: true}
	free, err := run(sim.Scenario{}, sim.Config{Iterations: 1})
	if err != nil {
		return nil, err
	}
	if !free.Iterations[0].Completed {
		return nil, fmt.Errorf("rt: the failure-free execution does not deliver every output")
	}
	res.FailureFree = free.Iterations[0].ResponseTime

	check := func(sc sim.Scenario) error {
		sr, err := run(sc, sim.Config{Iterations: 3})
		if err != nil {
			return err
		}
		res.ScenariosChecked++
		for i, ir := range sr.Iterations {
			if !ir.Completed {
				res.AllDelivered = false
				continue
			}
			switch {
			case i == 0: // transient iteration (failures injected at 0)
				if ir.ResponseTime > res.WorstTransient {
					res.WorstTransient = ir.ResponseTime
					res.WorstScenario = sc
				}
			default: // degraded steady state
				if ir.ResponseTime > res.WorstPermanent {
					res.WorstPermanent = ir.ResponseTime
				}
			}
		}
		return nil
	}

	if k >= 1 {
		dates := eventBoundaries(s)
		for _, p := range a.ProcessorNames() {
			for _, at := range dates {
				if err := check(sim.Single(p, 0, at)); err != nil {
					return nil, err
				}
			}
		}
	}
	for size := 2; size <= k; size++ {
		for _, sub := range subsets(a.ProcessorNames(), size) {
			sc := sim.Scenario{}
			for _, p := range sub {
				sc.Failures = append(sc.Failures, sim.Failure{Proc: p, Iteration: 0, At: 0})
			}
			if err := check(sc); err != nil {
				return nil, err
			}
		}
	}
	if res.WorstTransient < res.FailureFree {
		res.WorstTransient = res.FailureFree
	}
	if res.WorstPermanent < res.FailureFree {
		res.WorstPermanent = res.FailureFree
	}
	return res, nil
}

// subsets returns every size-k subset of procs, in lexicographic order of
// their positions in procs.
func subsets(procs []string, k int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i < len(procs); i++ {
			rec(i+1, append(cur, procs[i]))
		}
	}
	rec(0, nil)
	return out
}

// eventBoundaries collects the schedule's distinct activity start/end dates
// plus a point just after each, the crash dates that produce distinct
// executions.
func eventBoundaries(s *sched.Schedule) []float64 {
	set := map[float64]bool{0: true}
	add := func(t float64) {
		set[t] = true
		set[t+1e-6] = true
	}
	for _, p := range s.Procs() {
		for _, sl := range s.ProcSlots(p) {
			add(sl.Start)
			add(sl.End)
		}
	}
	for _, l := range s.Links() {
		for _, c := range s.LinkSlots(l) {
			add(c.Start)
			add(c.End)
		}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		if t >= 0 && !math.IsInf(t, 0) {
			out = append(out, t)
		}
	}
	sort.Float64s(out)
	return out
}
