package executive

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// paperProgram implements the paper graph with integer arithmetic so
// results are exactly checkable: I = iteration+1, each comp combines its
// inputs, O forwards E's value.
func paperProgram() *Program {
	sum := func(_ int, in map[string]Value) Value {
		total := 0
		for _, v := range in {
			total += v.(int)
		}
		return total
	}
	return NewProgram().
		Bind("I", func(it int, _ map[string]Value) Value { return it + 1 }).
		Bind("A", func(_ int, in map[string]Value) Value { return in["I"].(int) * 2 }).
		Bind("B", func(_ int, in map[string]Value) Value { return in["A"].(int) + 1 }).
		Bind("C", func(_ int, in map[string]Value) Value { return in["A"].(int) + 2 }).
		Bind("D", func(_ int, in map[string]Value) Value { return in["A"].(int) + 3 }).
		Bind("E", sum).
		Bind("O", func(_ int, in map[string]Value) Value { return in["E"] })
}

// expectedO computes the reference output for iteration it.
func expectedO(it int) int {
	i := it + 1
	a := i * 2
	return (a + 1) + (a + 2) + (a + 3)
}

func scheduleFor(t *testing.T, h core.Heuristic, in *paperex.Instance, k int) *core.Result {
	t.Helper()
	r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFailureFreeExecutiveComputesCorrectValues(t *testing.T) {
	in := paperex.BusInstance()
	for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
		r := scheduleFor(t, h, in, 1)
		res, err := Run(r.Schedule, in.Graph, paperProgram(), Config{Iterations: 3})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		for it, io := range res.Iterations {
			if !io.Completed {
				t.Fatalf("%v: iteration %d incomplete", h, it)
			}
			if got := io.Values["O"]; got != expectedO(it) {
				t.Errorf("%v: iteration %d O = %v, want %d", h, it, got, expectedO(it))
			}
		}
		if len(res.CrashedProcs) != 0 {
			t.Errorf("%v: spurious crashes %v", h, res.CrashedProcs)
		}
	}
}

func TestExecutiveSurvivesCrashFT1(t *testing.T) {
	in := paperex.BusInstance()
	r := scheduleFor(t, core.FT1, in, 1)
	// Kill the processor hosting the main replica of E right before it
	// would execute E, in iteration 1.
	victim := r.Schedule.MainReplica("E").Proc
	res, err := Run(r.Schedule, in.Graph, paperProgram(), Config{
		Iterations: 3,
		Kills:      []KillSpec{{Proc: victim, Iteration: 1, Op: "E"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for it, io := range res.Iterations {
		if !io.Completed {
			t.Fatalf("iteration %d incomplete after crash of %s", it, victim)
		}
		if got := io.Values["O"]; got != expectedO(it) {
			t.Errorf("iteration %d O = %v, want %d", it, got, expectedO(it))
		}
	}
	if len(res.CrashedProcs) != 1 || res.CrashedProcs[0] != victim {
		t.Errorf("CrashedProcs = %v", res.CrashedProcs)
	}
}

func TestExecutiveSurvivesEverySingleCrashPoint(t *testing.T) {
	in := paperex.BusInstance()
	tri := paperex.TriangleInstance()
	for _, tc := range []struct {
		h  core.Heuristic
		in *paperex.Instance
	}{{core.FT1, in}, {core.FT2, tri}} {
		r := scheduleFor(t, tc.h, tc.in, 1)
		for _, p := range r.Schedule.Procs() {
			for _, slot := range r.Schedule.ProcSlots(p) {
				res, err := Run(r.Schedule, tc.in.Graph, paperProgram(), Config{
					Iterations: 2,
					Kills:      []KillSpec{{Proc: p, Iteration: 0, Op: slot.Op}},
				})
				if err != nil {
					t.Fatal(err)
				}
				for it, io := range res.Iterations {
					if !io.Completed {
						t.Errorf("%v: crash of %s before %s: iteration %d incomplete",
							tc.h, p, slot.Op, it)
					} else if got := io.Values["O"]; got != expectedO(it) {
						t.Errorf("%v: crash of %s before %s: O = %v, want %d",
							tc.h, p, slot.Op, got, expectedO(it))
					}
				}
			}
		}
	}
}

func TestBasicExecutiveLosesOutputsOnCrash(t *testing.T) {
	in := paperex.BusInstance()
	r := scheduleFor(t, core.Basic, in, 0)
	p := r.Schedule.MainReplica("A").Proc
	res, err := Run(r.Schedule, in.Graph, paperProgram(), Config{
		Iterations: 1,
		Kills:      []KillSpec{{Proc: p, Iteration: 0, Op: "A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations[0].Completed {
		t.Error("basic executive should lose outputs when its only replica chain breaks")
	}
}

func TestExecutiveDoubleCrashFT2(t *testing.T) {
	// K=2 on a 4-processor mesh: two crashes in the same iteration.
	g := paperex.Algorithm()
	a := arch.New("mesh4")
	procs := []string{"P1", "P2", "P3", "P4"}
	for _, p := range procs {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := a.AddLink(fmt.Sprintf("L%d%d", i+1, j+1), procs[i], procs[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sp := spec.New()
	for _, op := range g.OpNames() {
		for _, p := range procs {
			if err := sp.SetExec(op, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range g.Edges() {
		if err := sp.SetCommUniform(a, e.Key(), 0.3); err != nil {
			t.Fatal(err)
		}
	}
	r, err := core.ScheduleFT2(g, a, sp, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps := r.Schedule.Replicas("E")
	res, err := Run(r.Schedule, g, paperProgram(), Config{
		Iterations: 2,
		Kills: []KillSpec{
			{Proc: reps[0].Proc, Iteration: 0, Op: "E"},
			{Proc: reps[1].Proc, Iteration: 0, Op: "E"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for it, io := range res.Iterations {
		if !io.Completed {
			t.Fatalf("iteration %d incomplete under double crash", it)
		}
		if got := io.Values["O"]; got != expectedO(it) {
			t.Errorf("iteration %d O = %v, want %d", it, got, expectedO(it))
		}
	}
}

// memProgram is a counter: state starts at 0; step adds the input extio's
// value (always 1) to the state; out reads the new count... the mem value
// read in iteration i is the state from iteration i-1.
func memFixture(t *testing.T) (*graph.Graph, *arch.Architecture, *spec.Spec, *Program) {
	t.Helper()
	g := graph.New("counter")
	if err := g.AddExtIO("tick"); err != nil {
		t.Fatal(err)
	}
	_ = g.AddMem("count")
	_ = g.AddComp("step")
	_ = g.AddExtIO("out")
	for _, e := range [][2]string{{"tick", "step"}, {"count", "step"}, {"step", "count"}, {"step", "out"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	a := arch.New("bus3")
	for _, p := range []string{"P1", "P2", "P3"} {
		_ = a.AddProcessor(p)
	}
	if err := a.AddBus("bus", "P1", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New()
	for _, op := range g.OpNames() {
		for _, p := range []string{"P1", "P2", "P3"} {
			_ = sp.SetExec(op, p, 1)
		}
	}
	for _, e := range g.Edges() {
		_ = sp.SetCommUniform(a, e.Key(), 0.4)
	}
	prog := NewProgram().
		Bind("tick", func(int, map[string]Value) Value { return 1 }).
		Bind("step", func(_ int, in map[string]Value) Value {
			return in["count"].(int) + in["tick"].(int)
		}).
		Bind("out", func(_ int, in map[string]Value) Value { return in["step"] }).
		InitMem("count", 0)
	return g, a, sp, prog
}

func TestMemStateAcrossIterations(t *testing.T) {
	g, a, sp, prog := memFixture(t)
	r, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(r.Schedule, g, prog, Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	for it, io := range res.Iterations {
		want := it + 1 // counter increments once per iteration
		if got := io.Values["out"]; got != want {
			t.Errorf("iteration %d out = %v, want %d", it, got, want)
		}
	}
}

func TestMemStateSurvivesCrash(t *testing.T) {
	g, a, sp, prog := memFixture(t)
	r, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the processor holding the main replica of the mem before it can
	// serve the state in iteration 2.
	victim := r.Schedule.MainReplica("count").Proc
	res, err := Run(r.Schedule, g, prog, Config{
		Iterations: 4,
		Kills:      []KillSpec{{Proc: victim, Iteration: 2, Op: "count"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for it, io := range res.Iterations {
		want := it + 1
		if !io.Completed {
			t.Fatalf("iteration %d incomplete", it)
		}
		if got := io.Values["out"]; got != want {
			t.Errorf("iteration %d out = %v, want %d (state must survive on the backup)", it, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	in := paperex.BusInstance()
	r := scheduleFor(t, core.FT1, in, 1)
	// Unbound operation.
	if _, err := Run(r.Schedule, in.Graph, NewProgram(), Config{}); err == nil {
		t.Error("unbound operations must error")
	}
	// Kill spec naming a placement that does not exist.
	prog := paperProgram()
	if _, err := Run(r.Schedule, in.Graph, prog, Config{
		Kills: []KillSpec{{Proc: "P3", Iteration: 0, Op: "I"}},
	}); err == nil {
		t.Error("kill spec for a non-placement must error")
	}
	if _, err := Run(r.Schedule, in.Graph, prog, Config{
		Iterations: 1,
		Kills:      []KillSpec{{Proc: "P1", Iteration: 5, Op: "I"}},
	}); err == nil {
		t.Error("kill iteration out of range must error")
	}
	// Missing mem init.
	g, a, sp, _ := memFixture(t)
	rr, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noInit := NewProgram().
		Bind("tick", func(int, map[string]Value) Value { return 1 }).
		Bind("step", func(_ int, in map[string]Value) Value { return 0 }).
		Bind("out", func(_ int, in map[string]Value) Value { return in["step"] })
	if _, err := Run(rr.Schedule, g, noInit, Config{}); err == nil {
		t.Error("missing mem init must error")
	}
	// A schedule for another graph: it places an operation this one lacks.
	foreign := sched.New(sched.ModeBasic, 0)
	foreign.AddOpSlot(sched.OpSlot{Op: "I", Proc: "P1", Start: 0, End: 1})
	foreign.AddOpSlot(sched.OpSlot{Op: "Zed", Proc: "P1", Start: 1, End: 2})
	if _, err := Run(foreign, in.Graph, prog, Config{}); err == nil || !strings.Contains(err.Error(), `"Zed"`) {
		t.Errorf("operation unknown to the graph: err = %v, want one naming Zed", err)
	}
}

// TestQuickExecutiveMatchesReference: on random DAGs with deterministic
// arithmetic, the concurrent executive under a random single crash produces
// the same outputs as a sequential reference evaluation.
func TestQuickExecutiveMatchesReference(t *testing.T) {
	f := func(seed int64, szOps uint8, killIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nOps := int(szOps%8) + 3
		g := graph.New("rand")
		_ = g.AddExtIO("in")
		names := []string{"in"}
		for i := 0; i < nOps; i++ {
			name := fmt.Sprintf("op%d", i)
			_ = g.AddComp(name)
			// Connect to 1-3 random earlier ops so everything is reachable.
			for _, j := range r.Perm(len(names))[:1+r.Intn(min(3, len(names)))] {
				_ = g.Connect(names[j], name)
			}
			names = append(names, name)
		}
		_ = g.AddExtIO("out")
		_ = g.Connect(names[len(names)-1], "out")

		a := arch.New("bus3")
		for _, p := range []string{"P1", "P2", "P3"} {
			_ = a.AddProcessor(p)
		}
		_ = a.AddBus("bus", "P1", "P2", "P3")
		sp := spec.New()
		for _, op := range g.OpNames() {
			for _, p := range []string{"P1", "P2", "P3"} {
				_ = sp.SetExec(op, p, 0.5+r.Float64())
			}
		}
		for _, e := range g.Edges() {
			_ = sp.SetCommUniform(a, e.Key(), 0.2+r.Float64()*0.3)
		}

		// Operation functions fold over a map, whose iteration order is
		// random, so the fold must be commutative: a shifted sum.
		prog := NewProgram()
		prog.Bind("in", func(it int, _ map[string]Value) Value { return it * 31 })
		prog.Bind("out", func(_ int, in map[string]Value) Value {
			for _, v := range in {
				return v
			}
			return nil
		})
		for i := 0; i < nOps; i++ {
			prog.Bind(fmt.Sprintf("op%d", i), func(_ int, in map[string]Value) Value {
				total := 7
				for _, v := range in {
					total += v.(int)
				}
				return total
			})
		}
		// Sequential reference evaluation.
		refSum := func(it int) int {
			vals := map[string]int{"in": it * 31}
			order, _ := g.TopoOrder()
			for _, op := range order {
				switch op {
				case "in":
				case "out":
					vals[op] = vals[g.Preds(op)[0]]
				default:
					total := 7
					for _, p := range g.Preds(op) {
						total += vals[p]
					}
					vals[op] = total
				}
			}
			return vals["out"]
		}

		sr, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
		if err != nil {
			return false
		}
		// Pick a random crash point among all placements.
		var kills []KillSpec
		var all []KillSpec
		for _, p := range sr.Schedule.Procs() {
			for _, slot := range sr.Schedule.ProcSlots(p) {
				all = append(all, KillSpec{Proc: p, Iteration: 0, Op: slot.Op})
			}
		}
		if len(all) > 0 {
			kills = []KillSpec{all[int(killIdx)%len(all)]}
		}
		res, err := Run(sr.Schedule, g, prog, Config{Iterations: 2, Kills: kills})
		if err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		for it, io := range res.Iterations {
			if !io.Completed {
				t.Logf("seed=%d kill=%+v: iteration %d incomplete", seed, kills, it)
				return false
			}
			if got := io.Values["out"]; got != refSum(it) {
				t.Logf("seed=%d kill=%+v: out=%v want %d", seed, kills, got, refSum(it))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkExecutiveFailureFree(b *testing.B) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := paperProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(r.Schedule, in.Graph, prog, Config{Iterations: 3})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Iterations[2].Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkExecutiveWithCrash(b *testing.B) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := paperProgram()
	victim := r.Schedule.MainReplica("E").Proc
	kills := []KillSpec{{Proc: victim, Iteration: 1, Op: "E"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(r.Schedule, in.Graph, prog, Config{Iterations: 3, Kills: kills})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Iterations[2].Completed {
			b.Fatal("incomplete")
		}
	}
}
