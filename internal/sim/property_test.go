package sim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// randomProblem generates a random layered DAG on a random architecture with
// every op allowed everywhere (so any K < nProcs is feasible).
func randomProblem(r *rand.Rand, nOps, nProcs int, bus bool) (*graph.Graph, *arch.Architecture, *spec.Spec) {
	g := graph.New("rand")
	for i := 0; i < nOps; i++ {
		_ = g.AddComp(fmt.Sprintf("op%d", i))
	}
	for i := 0; i < nOps; i++ {
		for j := i + 1; j < nOps; j++ {
			if r.Intn(3) == 0 {
				_ = g.Connect(fmt.Sprintf("op%d", i), fmt.Sprintf("op%d", j))
			}
		}
	}
	a := arch.New("rand")
	procs := make([]string, nProcs)
	for i := range procs {
		procs[i] = fmt.Sprintf("P%d", i)
		_ = a.AddProcessor(procs[i])
	}
	if bus {
		_ = a.AddBus("bus", procs...)
	} else {
		for i := 0; i < nProcs; i++ {
			for j := i + 1; j < nProcs; j++ {
				_ = a.AddLink(fmt.Sprintf("L%d_%d", i, j), procs[i], procs[j])
			}
		}
	}
	sp := spec.New()
	for _, op := range g.OpNames() {
		for _, p := range procs {
			_ = sp.SetExec(op, p, 0.5+r.Float64()*2)
		}
	}
	for _, e := range g.Edges() {
		_ = sp.SetCommUniform(a, e.Key(), 0.1+r.Float64())
	}
	return g, a, sp
}

// TestQuickFailureFreeSimulationMatchesStatic checks the executive
// invariant: with no failures, the simulated execution reproduces the static
// schedule's makespan for every heuristic.
func TestQuickFailureFreeSimulationMatchesStatic(t *testing.T) {
	f := func(seed int64, szOps, szProcs uint8, bus bool) bool {
		r := rand.New(rand.NewSource(seed))
		nOps := int(szOps%8) + 2
		nProcs := int(szProcs%3) + 2
		g, a, sp := randomProblem(r, nOps, nProcs, bus)
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			res, err := core.Schedule(h, g, a, sp, 1, core.Options{})
			if err != nil {
				return false
			}
			sr, err := sim.Simulate(res.Schedule, g, a, sp, sim.Scenario{}, sim.Config{})
			if err != nil {
				return false
			}
			ir := sr.Iterations[0]
			if !ir.Completed {
				t.Logf("seed=%d h=%v: failure-free run incomplete", seed, h)
				return false
			}
			if diff := ir.End - res.Schedule.Makespan(); diff > 1e-6 || diff < -1e-6 {
				t.Logf("seed=%d h=%v: simulated end %v != static %v",
					seed, h, ir.End, res.Schedule.Makespan())
				return false
			}
			if ir.TimeoutsFired != 0 || ir.FalseDetections != 0 {
				t.Logf("seed=%d h=%v: spurious timeouts", seed, h)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickZeroLengthTransfersFollowStaticDates: with some communication
// durations zero, the scheduler puts zero-length transfers at the edge of a
// busy window, the validator accepts the schedule in the executive's send
// order, and both executives replay it without delay.
func TestQuickZeroLengthTransfersFollowStaticDates(t *testing.T) {
	f := func(seed int64, szOps, szProcs uint8, bus bool) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomProblem(r, int(szOps%8)+2, int(szProcs%3)+2, bus)
		for _, e := range g.Edges() {
			if r.Intn(2) == 0 {
				_ = sp.SetCommUniform(a, e.Key(), 0)
			}
		}
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			res, err := core.Schedule(h, g, a, sp, 1, core.Options{})
			if err != nil {
				return false
			}
			if err := res.Schedule.Validate(g, a, sp); err != nil {
				t.Logf("seed=%d h=%v: %v", seed, h, err)
				return false
			}
			for _, run := range []func(*sched.Schedule, *graph.Graph, *arch.Architecture, *spec.Spec, sim.Scenario, sim.Config) (*sim.Result, error){
				sim.Simulate, sim.SimulateLegacy,
			} {
				sr, err := run(res.Schedule, g, a, sp, sim.Scenario{}, sim.Config{})
				if err != nil {
					return false
				}
				ir := sr.Iterations[0]
				if diff := ir.End - res.Schedule.Makespan(); !ir.Completed || diff > 1e-6 || diff < -1e-6 {
					t.Logf("seed=%d h=%v: simulated end %v (completed %v) != static %v",
						seed, h, ir.End, ir.Completed, res.Schedule.Makespan())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFT1ToleratesAnySingleFailure is the paper's central claim for the
// first solution: a K=1 FT1 schedule on a bus delivers every output under
// any single fail-stop failure at any time, in the transient iteration and
// in all subsequent ones.
func TestQuickFT1ToleratesAnySingleFailure(t *testing.T) {
	f := func(seed int64, szOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomProblem(r, int(szOps%8)+2, 3, true)
		res, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
		if err != nil {
			return false
		}
		horizon := res.Schedule.Makespan()
		for _, sc := range sim.SingleSweep(a, horizon, 6) {
			sr, err := sim.Simulate(res.Schedule, g, a, sp, sc, sim.Config{Iterations: 2})
			if err != nil {
				return false
			}
			for _, ir := range sr.Iterations {
				if !ir.Completed {
					t.Logf("seed=%d: failure %+v: iteration %d incomplete",
						seed, sc.Failures[0], ir.Index)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFT2ToleratesAnySingleFailure is the mirror claim for the second
// solution on point-to-point architectures, with the additional invariant
// that no timeouts ever fire.
func TestQuickFT2ToleratesAnySingleFailure(t *testing.T) {
	f := func(seed int64, szOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomProblem(r, int(szOps%8)+2, 3, false)
		res, err := core.ScheduleFT2(g, a, sp, 1, core.Options{})
		if err != nil {
			return false
		}
		horizon := res.Schedule.Makespan()
		for _, sc := range sim.SingleSweep(a, horizon, 6) {
			sr, err := sim.Simulate(res.Schedule, g, a, sp, sc, sim.Config{Iterations: 2})
			if err != nil {
				return false
			}
			for _, ir := range sr.Iterations {
				if !ir.Completed || ir.TimeoutsFired != 0 {
					t.Logf("seed=%d: failure %+v: iteration %d incomplete or timed out",
						seed, sc.Failures[0], ir.Index)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// procPairs returns every pair of a's processors, in name-list order.
func procPairs(a *arch.Architecture) [][2]string {
	procs := a.ProcessorNames()
	var out [][2]string
	for i := range procs {
		for _, q := range procs[i+1:] {
			out = append(out, [2]string{procs[i], q})
		}
	}
	return out
}

// TestQuickFT2ToleratesDoubleFailures exercises K=2 with every pair of
// simultaneous failures on a 4-processor point-to-point architecture.
func TestQuickFT2ToleratesDoubleFailures(t *testing.T) {
	f := func(seed int64, szOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomProblem(r, int(szOps%6)+2, 4, false)
		res, err := core.ScheduleFT2(g, a, sp, 2, core.Options{})
		if err != nil {
			return false
		}
		horizon := res.Schedule.Makespan()
		for _, at := range []float64{0, horizon / 2} {
			for _, pair := range procPairs(a) {
				sc := sim.Scenario{Failures: []sim.Failure{
					{Proc: pair[0], At: at}, {Proc: pair[1], At: at}}}
				sr, err := sim.Simulate(res.Schedule, g, a, sp, sc, sim.Config{Iterations: 2})
				if err != nil {
					return false
				}
				for _, ir := range sr.Iterations {
					if !ir.Completed {
						t.Logf("seed=%d at=%v failures=%v: incomplete", seed, at, sc.Failures)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFT1ToleratesStaggeredDoubleFailures exercises FT1 with K=2 under
// one failure per iteration (the regime the paper says FT1 handles well).
func TestQuickFT1ToleratesStaggeredDoubleFailures(t *testing.T) {
	f := func(seed int64, szOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomProblem(r, int(szOps%6)+2, 4, true)
		res, err := core.ScheduleFT1(g, a, sp, 2, core.Options{})
		if err != nil {
			return false
		}
		for _, pair := range procPairs(a) {
			sc := sim.Scenario{Failures: []sim.Failure{
				{Proc: pair[0]}, {Proc: pair[1], Iteration: 1}}}
			sr, err := sim.Simulate(res.Schedule, g, a, sp, sc, sim.Config{Iterations: 3})
			if err != nil {
				return false
			}
			for _, ir := range sr.Iterations {
				if !ir.Completed {
					t.Logf("seed=%d failures=%v: iteration %d incomplete", seed, sc.Failures, ir.Index)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPaperInstanceExhaustiveSingleFailures runs a dense single-failure
// sweep on both paper instances.
func TestPaperInstanceExhaustiveSingleFailures(t *testing.T) {
	bus := paperex.BusInstance()
	ft1, err := core.ScheduleFT1(bus.Graph, bus.Arch, bus.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sim.SingleSweep(bus.Arch, ft1.Schedule.Makespan(), 20) {
		res, err := sim.Simulate(ft1.Schedule, bus.Graph, bus.Arch, bus.Spec, sc, sim.Config{Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, ir := range res.Iterations {
			if !ir.Completed {
				t.Errorf("FT1: %+v iteration %d incomplete", sc.Failures[0], ir.Index)
			}
		}
	}
	tri := paperex.TriangleInstance()
	ft2, err := core.ScheduleFT2(tri.Graph, tri.Arch, tri.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sim.SingleSweep(tri.Arch, ft2.Schedule.Makespan(), 20) {
		res, err := sim.Simulate(ft2.Schedule, tri.Graph, tri.Arch, tri.Spec, sc, sim.Config{Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, ir := range res.Iterations {
			if !ir.Completed {
				t.Errorf("FT2: %+v iteration %d incomplete", sc.Failures[0], ir.Index)
			}
		}
	}
}
