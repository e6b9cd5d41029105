// Package faults builds fail-stop failure scenarios for the executive
// simulator: exhaustive single-failure sweeps, K-subset enumerations for
// tolerance proofs, and staggered multi-failure sequences. Random scenarios
// come from the campaign generator (internal/campaign).
package faults

import (
	"ftsched/internal/arch"
	"ftsched/internal/sim"
)

// SingleSweep returns one scenario per (processor, crash date): processor p
// fails at the given iteration at each date in ats. Useful to check that a
// K=1 schedule survives every single failure.
func SingleSweep(a *arch.Architecture, iteration int, ats []float64) []sim.Scenario {
	var out []sim.Scenario
	for _, p := range a.ProcessorNames() {
		for _, at := range ats {
			out = append(out, sim.Single(p, iteration, at))
		}
	}
	return out
}

// CrashDates returns n evenly spaced crash dates spanning [0, horizon],
// including both endpoints when n >= 2.
func CrashDates(horizon float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{0}
	}
	out := make([]float64, n)
	step := horizon / float64(n-1)
	for i := range out {
		out[i] = step * float64(i)
	}
	return out
}

// Subsets returns every subset of size k of the architecture's processors,
// in deterministic order.
func Subsets(a *arch.Architecture, k int) [][]string {
	procs := a.ProcessorNames()
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == k {
			cp := make([]string, k)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for i := start; i < len(procs); i++ {
			rec(i+1, append(cur, procs[i]))
		}
	}
	rec(0, nil)
	return out
}

// SimultaneousSweep returns one scenario per k-subset of processors, all
// failing at the same iteration and date. Useful to check that a K=k
// schedule survives any k simultaneous failures.
func SimultaneousSweep(a *arch.Architecture, k, iteration int, at float64) []sim.Scenario {
	var out []sim.Scenario
	for _, sub := range Subsets(a, k) {
		sc := sim.Scenario{}
		for _, p := range sub {
			sc.Failures = append(sc.Failures, sim.Failure{Proc: p, Iteration: iteration, At: at})
		}
		out = append(out, sc)
	}
	return out
}

// StaggeredSweep returns one scenario per k-subset, with the i-th processor
// of the subset failing at iteration i (one new failure per iteration).
func StaggeredSweep(a *arch.Architecture, k int, at float64) []sim.Scenario {
	var out []sim.Scenario
	for _, sub := range Subsets(a, k) {
		sc := sim.Scenario{}
		for i, p := range sub {
			sc.Failures = append(sc.Failures, sim.Failure{Proc: p, Iteration: i, At: at})
		}
		out = append(out, sc)
	}
	return out
}
