package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sim"
)

// assertDifferential runs the scenario through both engines and fails unless
// errors and Results agree exactly (reflect.DeepEqual).
func assertDifferential(t *testing.T, run func(legacy bool) (*sim.Result, error), label string) {
	t.Helper()
	want, wantErr := run(true)
	got, gotErr := run(false)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: legacy=%v compiled=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\nlegacy:   %v\ncompiled: %v", label, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: result mismatch:\nlegacy:   %+v\ncompiled: %+v", label, want, got)
	}
}

// diffCase holds one (instance, heuristic) pair under differential test.
type diffCase struct {
	name string
	in   *paperex.Instance
	h    core.Heuristic
	k    int
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	return []diffCase{
		{"bus/basic", paperex.BusInstance(), core.Basic, 0},
		{"bus/ft1", paperex.BusInstance(), core.FT1, 1},
		{"bus/ft1k2", paperex.BusInstance(), core.FT1, 2},
		{"p2p/basic", paperex.TriangleInstance(), core.Basic, 0},
		{"p2p/ft2", paperex.TriangleInstance(), core.FT2, 1},
	}
}

// diffScenarios enumerates the scenario classes the campaign generators
// draw from: failure-free, fail-stop singles, near-simultaneous bursts,
// intermittent outages, link outages, and mixes, plus invalid scenarios
// (shared validation must reject them identically).
func diffScenarios(in *paperex.Instance, horizon float64) []sim.Scenario {
	procs := in.Arch.ProcessorNames()
	links := in.Arch.LinkNames()
	out := []sim.Scenario{{}}
	for _, p := range procs {
		out = append(out,
			sim.Single(p, 0, 0),
			sim.Single(p, 0, horizon*0.4),
			sim.Single(p, 1, horizon*0.8),
			sim.Intermittent(p, 0, horizon*0.3, 0, horizon*0.7),
			sim.Intermittent(p, 0, horizon*0.2, 2, horizon*0.1),
		)
	}
	// Near-simultaneous burst: two failures within 2% of the horizon (the
	// paper's stated FT1 weakness).
	if len(procs) >= 2 {
		out = append(out, sim.Scenario{Failures: []sim.Failure{
			{Proc: procs[0], Iteration: 0, At: horizon * 0.5},
			{Proc: procs[1], Iteration: 0, At: horizon * 0.51},
		}})
		out = append(out, sim.Scenario{Failures: []sim.Failure{
			{Proc: procs[0], Iteration: 0, At: horizon * 0.3},
			{Proc: procs[1], Iteration: 1, At: horizon * 0.6},
		}})
	}
	for _, l := range links {
		out = append(out,
			sim.SingleLink(l, 0, horizon*0.5),
			sim.Scenario{Links: []sim.LinkFailure{{
				Link: l, Iteration: 0, At: horizon * 0.25,
				RecoverIteration: 0, RecoverAt: horizon * 0.75,
			}}},
		)
	}
	if len(procs) >= 1 && len(links) >= 1 {
		out = append(out, sim.Scenario{
			Failures: []sim.Failure{{Proc: procs[len(procs)-1], Iteration: 0, At: horizon * 0.6}},
			Links:    []sim.LinkFailure{{Link: links[0], Iteration: 1, At: horizon * 0.2}},
		})
	}
	// Invalid scenarios: both engines must reject with identical errors.
	out = append(out,
		sim.Single("no-such-proc", 0, 1),
		sim.Single(procs[0], -1, 1),
		sim.Scenario{Failures: []sim.Failure{
			{Proc: procs[0], Iteration: 0, At: 5, RecoverIteration: 0, RecoverAt: 2},
		}},
		sim.Scenario{Failures: []sim.Failure{
			{Proc: procs[0], Iteration: 0, At: 1},
			{Proc: procs[0], Iteration: 1, At: 2},
		}},
		sim.SingleLink("no-such-link", 0, 1),
		sim.Scenario{Links: []sim.LinkFailure{
			{Link: links[0], Iteration: 0, At: 1},
			{Link: links[0], Iteration: 0, At: 2},
		}},
	)
	return out
}

// TestSimDifferentialMatrix pins the compiled engine to the legacy engine
// over heuristics × scenario classes, with tracing and a deadline so every
// Result field is exercised.
func TestSimDifferentialMatrix(t *testing.T) {
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r, err := core.Schedule(tc.h, tc.in.Graph, tc.in.Arch, tc.in.Spec, tc.k, core.Options{AllowDegraded: true})
			if err != nil {
				t.Fatal(err)
			}
			s := r.Schedule
			horizon := s.Makespan()
			for si, sc := range diffScenarios(tc.in, horizon) {
				for _, trace := range []bool{false, true} {
					cfg := sim.Config{Iterations: 3, Trace: trace, Deadline: horizon * 1.5}
					label := fmt.Sprintf("scenario %d trace=%v", si, trace)
					assertDifferential(t, func(legacy bool) (*sim.Result, error) {
						if legacy {
							return sim.SimulateLegacy(s, tc.in.Graph, tc.in.Arch, tc.in.Spec, sc, cfg)
						}
						return sim.Simulate(s, tc.in.Graph, tc.in.Arch, tc.in.Spec, sc, cfg)
					}, label)
				}
			}
		})
	}
}

// TestSimDifferentialRandom drives both engines over random problems and
// random scenarios (including intermittent and link failures the sweep
// helpers do not generate).
func TestSimDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nOps := 4 + rng.Intn(8)
		nProcs := 2 + rng.Intn(3)
		bus := rng.Intn(2) == 0
		g, a, sp := randomProblem(rng, nOps, nProcs, bus)
		h := []core.Heuristic{core.Basic, core.FT1, core.FT2}[trial%3]
		k := 0
		if h != core.Basic {
			k = 1
		}
		r, err := core.Schedule(h, g, a, sp, k, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Schedule
		horizon := s.Makespan()
		sc := randomScenario(rng, a, horizon)
		cfg := sim.Config{Iterations: 1 + rng.Intn(4), Trace: trial%2 == 0}
		label := fmt.Sprintf("trial %d (%d ops, %d procs, bus=%v, h=%v)", trial, nOps, nProcs, bus, h)
		assertDifferential(t, func(legacy bool) (*sim.Result, error) {
			if legacy {
				return sim.SimulateLegacy(s, g, a, sp, sc, cfg)
			}
			return sim.Simulate(s, g, a, sp, sc, cfg)
		}, label)
	}
}

// randomScenario draws a mixed random scenario: fail-stop and intermittent
// processor failures plus occasional link outages.
func randomScenario(r *rand.Rand, a *arch.Architecture, horizon float64) sim.Scenario {
	var sc sim.Scenario
	procs := a.ProcessorNames()
	links := a.LinkNames()
	for _, i := range r.Perm(len(procs))[:r.Intn(len(procs)+1)] {
		f := sim.Failure{Proc: procs[i], Iteration: r.Intn(3), At: r.Float64() * horizon}
		if r.Intn(3) == 0 {
			f.RecoverIteration = f.Iteration + r.Intn(2)
			f.RecoverAt = f.At + 0.01 + r.Float64()*horizon
			if f.RecoverIteration > f.Iteration {
				f.RecoverAt = r.Float64() * horizon
			}
		}
		sc.Failures = append(sc.Failures, f)
	}
	if len(links) > 0 && r.Intn(2) == 0 {
		l := links[r.Intn(len(links))]
		lf := sim.LinkFailure{Link: l, Iteration: r.Intn(3), At: r.Float64() * horizon}
		if r.Intn(2) == 0 {
			lf.RecoverIteration = lf.Iteration
			lf.RecoverAt = lf.At + 0.01 + r.Float64()*horizon*0.5
		}
		sc.Links = append(sc.Links, lf)
	}
	return sc
}

// TestSimCompiledModelSharedAcrossWorkers runs the same scenario batch on
// 1, 4, and 8 goroutines sharing one compiled Model (a Runner each) and
// pins every Result to the legacy engine — the campaign's sharding shape.
func TestSimCompiledModelSharedAcrossWorkers(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.Schedule(core.FT1, in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	horizon := s.Makespan()
	m, err := sim.Compile(s, in.Graph, in.Arch, in.Spec)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := diffScenarios(in, horizon)
	// Keep only the valid ones: worker goroutines assert DeepEqual results.
	valid := scenarios[:0]
	for _, sc := range scenarios {
		if m.Validate(sc) == nil {
			valid = append(valid, sc)
		}
	}
	cfg := sim.Config{Iterations: 2, Deadline: horizon * 1.2}
	want := make([]*sim.Result, len(valid))
	for i, sc := range valid {
		res, err := sim.SimulateLegacy(s, in.Graph, in.Arch, in.Spec, sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			got := make([]*sim.Result, len(valid))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					runner := m.NewRunner()
					for i := w; i < len(valid); i += workers {
						res, err := runner.Run(valid[i], cfg)
						if err == nil {
							got[i] = res
						}
					}
				}(w)
			}
			wg.Wait()
			for i := range valid {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("scenario %d: shared-model result diverges from legacy:\nlegacy:   %+v\ncompiled: %+v", i, want[i], got[i])
				}
			}
		})
	}
}

// TestRunStatsMatchesFullRun pins the lean statistics path to the full
// fidelity path.
func TestRunStatsMatchesFullRun(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.Schedule(core.FT1, in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	horizon := s.Makespan()
	m, err := sim.Compile(s, in.Graph, in.Arch, in.Spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := m.NewRunner()
	for si, sc := range diffScenarios(in, horizon) {
		if m.Validate(sc) != nil {
			continue
		}
		assertStatsMatch(t, m, runner, sc, sim.Config{Iterations: 3, Deadline: horizon * 1.1}, fmt.Sprintf("scenario %d", si))
	}
}

// assertStatsMatch fails unless RunStats aggregates exactly what Run
// reports for the scenario.
func assertStatsMatch(t *testing.T, m *sim.Model, runner *sim.Runner, sc sim.Scenario, cfg sim.Config, label string) {
	t.Helper()
	cfg.Trace = false
	full, err := m.Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := runner.RunStats(sc, sim.RunConfig{Iterations: cfg.Iterations, Deadline: cfg.Deadline})
	want := sim.Stats{Iterations: len(full.Iterations)}
	for it, ir := range full.Iterations {
		if ir.Completed {
			want.Completed++
		}
		if !ir.DeadlineMet {
			want.DeadlineMisses++
		}
		want.Messages += ir.MessagesSent
		want.Timeouts += ir.TimeoutsFired
		want.FalseDetections += ir.FalseDetections
		want.SumResponse += ir.ResponseTime
		if ir.ResponseTime > want.WorstResponse {
			want.WorstResponse, want.WorstIteration = ir.ResponseTime, it
		}
	}
	// A Result carries no failover, loss, or operation tallies: take
	// RunStats' own and compare every other field.
	want.Failovers, want.Lost, want.Missed = st.Failovers, st.Lost, st.Missed
	want.OpsExecuted, want.OpsCancelled = st.OpsExecuted, st.OpsCancelled
	if st != want {
		t.Fatalf("%s: RunStats diverges from full run:\nstats: %+v\nfull:  %+v", label, st, want)
	}
}

// FuzzSimDifferential holds the compiled and legacy engines together under
// fuzzed problems and scenarios (the scenario bytes drive failure targets,
// dates, recovery points, and link outages; invalid combinations must be
// rejected with identical errors). Problems reach 40 operations and K=2 on
// three or more processors, so FT1 schedules carry many failover chains.
func FuzzSimDifferential(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), true, uint8(1), []byte{0, 0, 10, 0, 0})
	f.Add(int64(2), uint8(8), uint8(2), false, uint8(2), []byte{1, 1, 200, 1, 120, 255, 0, 40, 0, 0})
	f.Add(int64(3), uint8(4), uint8(4), true, uint8(0), []byte{})
	f.Add(int64(4), uint8(10), uint8(3), true, uint8(1), []byte{0, 0, 3, 0, 9, 1, 0, 5, 0, 0, 2, 1, 7, 0, 0})
	f.Add(int64(5), uint8(38), uint8(2), true, uint8(4), []byte{1, 0, 128, 0, 0, 2, 0, 130, 0, 0})
	f.Add(int64(6), uint8(30), uint8(3), false, uint8(5), []byte{255, 0, 100, 0, 0, 3, 1, 60, 1, 20})
	// A bus outage on a K=2 FT1 schedule that leaves a passive backup's
	// source pending at quiescence: unblock must invalidate its chain.
	f.Add(int64(97), uint8(8), uint8(10), true, uint8(34), []byte("\xff0010"))
	f.Fuzz(func(t *testing.T, seed int64, szOps, szProcs uint8, bus bool, hsel uint8, scBytes []byte) {
		rng := rand.New(rand.NewSource(seed))
		nOps := int(szOps%39) + 2
		nProcs := int(szProcs%4) + 2
		g, a, sp := randomProblem(rng, nOps, nProcs, bus)
		h := []core.Heuristic{core.Basic, core.FT1, core.FT2}[int(hsel)%3]
		k := 0
		if h != core.Basic {
			k = 1
			if nProcs >= 3 && hsel/3%2 == 1 {
				k = 2
			}
		}
		r, err := core.Schedule(h, g, a, sp, k, core.Options{})
		if err != nil {
			t.Skip() // infeasible random problem
		}
		s := r.Schedule
		sc := scenarioFromBytes(scBytes, a, s.Makespan())
		cfg := sim.Config{Iterations: 2, Trace: len(scBytes)%2 == 0}
		want, wantErr := sim.SimulateLegacy(s, g, a, sp, sc, cfg)
		got, gotErr := sim.Simulate(s, g, a, sp, sc, cfg)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: legacy=%v compiled=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text mismatch:\nlegacy:   %v\ncompiled: %v", wantErr, gotErr)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("result mismatch:\nlegacy:   %+v\ncompiled: %+v", want, got)
		}
	})
}

// scenarioFromBytes decodes a fuzzed scenario: groups of 5 bytes yield one
// failure (target, iteration, date, recovery iteration, recovery date);
// target 255 selects a link, and targets past the processor count produce
// invalid scenarios on purpose.
func scenarioFromBytes(b []byte, a *arch.Architecture, horizon float64) sim.Scenario {
	procs := a.ProcessorNames()
	links := a.LinkNames()
	var sc sim.Scenario
	for i := 0; i+5 <= len(b) && i < 4*5; i += 5 {
		target, iter := b[i], int(b[i+1]%3)
		at := float64(b[i+2]) / 255 * horizon
		recIter, recAt := int(b[i+3]%4), float64(b[i+4])/255*horizon
		if target == 255 && len(links) > 0 {
			lf := sim.LinkFailure{Link: links[int(b[i+1])%len(links)], Iteration: iter, At: at}
			if recAt > 0 {
				lf.RecoverIteration, lf.RecoverAt = recIter, recAt
			}
			sc.Links = append(sc.Links, lf)
			continue
		}
		proc := fmt.Sprintf("P%d", int(target)%(len(procs)+2)) // may be unknown
		pf := sim.Failure{Proc: proc, Iteration: iter, At: at}
		if recAt > 0 {
			pf.RecoverIteration, pf.RecoverAt = recIter, recAt
		}
		sc.Failures = append(sc.Failures, pf)
	}
	return sc
}
