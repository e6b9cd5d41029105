package sim

import (
	"math"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// schedule runs heuristic h on the paper instance and returns the schedule.
func schedule(t *testing.T, in *paperex.Instance, h core.Heuristic, k int) *sched.Schedule {
	t.Helper()
	r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Schedule
}

func simulate(t *testing.T, in *paperex.Instance, s *sched.Schedule, sc Scenario, iters int) *Result {
	t.Helper()
	res, err := Simulate(s, in.Graph, in.Arch, in.Spec, sc, Config{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailureFreeBasicMatchesStaticSchedule(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.Basic, 0)
	res := simulate(t, in, s, Scenario{}, 1)
	ir := res.Iterations[0]
	if !ir.Completed {
		t.Fatalf("failure-free run incomplete: %+v", ir)
	}
	if !almostEq(ir.ResponseTime, s.Makespan()) {
		t.Errorf("simulated response %v != static makespan %v", ir.ResponseTime, s.Makespan())
	}
	if ir.TimeoutsFired != 0 || ir.FalseDetections != 0 {
		t.Errorf("failure-free run fired timeouts: %+v", ir)
	}
	if ir.Transient {
		t.Error("no failure: iteration must not be transient")
	}
}

func TestFailureFreeFT1MatchesStaticSchedule(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.FT1, 1)
	res := simulate(t, in, s, Scenario{}, 2)
	for _, ir := range res.Iterations {
		if !ir.Completed {
			t.Fatalf("iteration %d incomplete", ir.Index)
		}
		if ir.TimeoutsFired != 0 || ir.FalseDetections != 0 {
			t.Errorf("iteration %d fired timeouts in failure-free run: %+v", ir.Index, ir)
		}
		if !almostEq(ir.End, s.Makespan()) {
			t.Errorf("iteration %d end %v != static makespan %v", ir.Index, ir.End, s.Makespan())
		}
	}
	if ir := res.Iterations[0]; ir.MessagesSent != s.NumActiveComms() {
		t.Errorf("messages = %d, active comms in schedule = %d", ir.MessagesSent, s.NumActiveComms())
	}
}

func TestFailureFreeFT2MatchesStaticSchedule(t *testing.T) {
	in := paperex.TriangleInstance()
	s := schedule(t, in, core.FT2, 1)
	res := simulate(t, in, s, Scenario{}, 1)
	ir := res.Iterations[0]
	if !ir.Completed {
		t.Fatalf("incomplete: %+v", ir)
	}
	if !almostEq(ir.End, s.Makespan()) {
		t.Errorf("end %v != static makespan %v", ir.End, s.Makespan())
	}
	if ir.TimeoutsFired != 0 {
		t.Error("FT2 never uses timeouts")
	}
}

// TestFig18TransientAndPermanent reproduces the paper's Fig. 18: P2 crashes
// during an iteration; the transient iteration pays timeout waits, the
// subsequent iterations recover because the fail flags persist.
func TestFig18TransientAndPermanent(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.FT1, 1)
	failFree := simulate(t, in, s, Scenario{}, 1).Iterations[0]

	res := simulate(t, in, s, Single("P2", 1, 0), 3)
	normal, transient, perm := res.Iterations[0], res.Iterations[1], res.Iterations[2]

	if !normal.Completed || normal.TimeoutsFired != 0 {
		t.Fatalf("iteration before failure not clean: %+v", normal)
	}
	if !transient.Completed {
		t.Fatalf("transient iteration lost outputs: %+v", transient)
	}
	if !transient.Transient {
		t.Error("iteration 1 should be marked transient")
	}
	if transient.TimeoutsFired == 0 {
		t.Error("transient iteration should fire failover timeouts")
	}
	if transient.ResponseTime <= failFree.ResponseTime {
		t.Errorf("transient response %v should exceed failure-free %v (timeout waits)",
			transient.ResponseTime, failFree.ResponseTime)
	}
	if !perm.Completed {
		t.Fatalf("permanent iteration lost outputs: %+v", perm)
	}
	if perm.TimeoutsFired != 0 {
		t.Errorf("subsequent iteration still fires timeouts (%d): fail flags must persist", perm.TimeoutsFired)
	}
	// The detection waits disappear in subsequent iterations; the response
	// can stay degraded (the backups' placement is what it is) but never
	// worse than the transient one.
	if perm.ResponseTime > transient.ResponseTime+1e-9 {
		t.Errorf("permanent response %v worse than transient %v",
			perm.ResponseTime, transient.ResponseTime)
	}
	if got := res.FailedProcs; len(got) != 1 || got[0] != "P2" {
		t.Errorf("FailedProcs = %v", got)
	}
	if got := res.DetectedProcs; len(got) != 1 || got[0] != "P2" {
		t.Errorf("DetectedProcs = %v", got)
	}
	// Section 6.4's claim: after a failure, the number of inter-processor
	// communications does not increase.
	if perm.MessagesSent > normal.MessagesSent {
		t.Errorf("messages after failure (%d) exceed initial schedule (%d)",
			perm.MessagesSent, normal.MessagesSent)
	}
}

// TestFT1RecoveryAfterDetection pins the strict transient-vs-permanent
// improvement for crashes whose timeout waits sit on the critical path.
func TestFT1RecoveryAfterDetection(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.FT1, 1)
	for _, p := range []string{"P1", "P3"} {
		res := simulate(t, in, s, Single(p, 1, 0), 3)
		transient, perm := res.Iterations[1], res.Iterations[2]
		if !transient.Completed || !perm.Completed {
			t.Fatalf("%s crash: lost outputs", p)
		}
		if perm.ResponseTime >= transient.ResponseTime {
			t.Errorf("%s crash: permanent response %v should recover below transient %v",
				p, perm.ResponseTime, transient.ResponseTime)
		}
	}
}

// TestFig23FT2Transient reproduces the paper's Fig. 23: with the second
// solution there are no timeouts, so the transient iteration completes
// without detection delays and the discarded comms simply disappear.
func TestFig23FT2Transient(t *testing.T) {
	in := paperex.TriangleInstance()
	s := schedule(t, in, core.FT2, 1)
	failFree := simulate(t, in, s, Scenario{}, 1).Iterations[0]

	// P2 crashes right after executing A (its A replica completes at 3).
	res := simulate(t, in, s, Single("P2", 0, 3.0), 2)
	transient, perm := res.Iterations[0], res.Iterations[1]
	if !transient.Completed {
		t.Fatalf("FT2 transient iteration lost outputs: %+v", transient)
	}
	if transient.TimeoutsFired != 0 || transient.FalseDetections != 0 {
		t.Error("FT2 must not use timeouts")
	}
	if !perm.Completed {
		t.Fatalf("FT2 permanent iteration lost outputs: %+v", perm)
	}
	// Messages drop once the failed processor's sends vanish.
	if perm.MessagesSent >= failFree.MessagesSent {
		t.Errorf("messages with P2 down (%d) should be below failure-free (%d)",
			perm.MessagesSent, failFree.MessagesSent)
	}
}

func TestFT1ToleratesEverySingleFailure(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.FT1, 1)
	for _, p := range in.Arch.ProcessorNames() {
		for _, at := range []float64{0, 1.0, 2.5, 4.0, 6.0, 8.0} {
			res := simulate(t, in, s, Single(p, 0, at), 2)
			for _, ir := range res.Iterations {
				if !ir.Completed {
					t.Errorf("FT1: failure of %s at %v: iteration %d lost outputs", p, at, ir.Index)
				}
			}
		}
	}
}

func TestFT2ToleratesEverySingleFailure(t *testing.T) {
	in := paperex.TriangleInstance()
	s := schedule(t, in, core.FT2, 1)
	for _, p := range in.Arch.ProcessorNames() {
		for _, at := range []float64{0, 1.0, 2.5, 4.0, 6.0, 8.0} {
			res := simulate(t, in, s, Single(p, 0, at), 2)
			for _, ir := range res.Iterations {
				if !ir.Completed {
					t.Errorf("FT2: failure of %s at %v: iteration %d lost outputs", p, at, ir.Index)
				}
			}
		}
	}
}

func TestBasicIsNotFaultTolerant(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.Basic, 0)
	// Killing the processor that runs the input extio's single replica at
	// t=0 must lose outputs.
	p := s.MainReplica("I").Proc
	res := simulate(t, in, s, Single(p, 0, 0), 1)
	if res.Iterations[0].Completed {
		t.Error("basic schedule survived a failure it cannot tolerate")
	}
}

// TestFT2SupportsSimultaneousFailures checks Section 7.4's claim: the second
// solution supports several failures arriving in the same iteration (K=2 on
// a 4-processor fully connected architecture, two failures at once).
func TestFT2SupportsSimultaneousFailures(t *testing.T) {
	in := quadInstance(t)
	r, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Failures: []Failure{
		{Proc: "P1", Iteration: 0, At: 2.0},
		{Proc: "P3", Iteration: 0, At: 2.0},
	}}
	res, err := Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sc, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range res.Iterations {
		if !ir.Completed {
			t.Errorf("FT2 K=2: iteration %d lost outputs under two simultaneous failures", ir.Index)
		}
		if ir.TimeoutsFired != 0 {
			t.Error("FT2 must not use timeouts")
		}
	}
}

// TestFT1TimeoutAccumulation checks Section 6.6's observation: with the
// first solution, several failures in one iteration accumulate timeout
// delays.
func TestFT1TimeoutAccumulation(t *testing.T) {
	in := quadInstance(t)
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	failFree, err := Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, Scenario{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Failures: []Failure{
		{Proc: "P1", Iteration: 0, At: 0},
		{Proc: "P2", Iteration: 0, At: 0},
	}}
	res, err := Simulate(r.Schedule, in.Graph, in.Arch, in.Spec, sc, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Iterations[0]
	if !ir.Completed {
		t.Fatalf("FT1 K=2 lost outputs under two failures: %+v", ir)
	}
	if ir.TimeoutsFired < 2 {
		t.Errorf("expected accumulated timeouts, got %d", ir.TimeoutsFired)
	}
	if ir.ResponseTime <= failFree.Iterations[0].ResponseTime {
		t.Errorf("two failures should delay the response: %v vs %v",
			ir.ResponseTime, failFree.Iterations[0].ResponseTime)
	}
}

func TestScenarioValidation(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.Basic, 0)
	cases := []Scenario{
		{Failures: []Failure{{Proc: "PX", Iteration: 0, At: 0}}},
		{Failures: []Failure{{Proc: "P1", Iteration: -1, At: 0}}},
		{Failures: []Failure{{Proc: "P1", Iteration: 0, At: -1}}},
		{Failures: []Failure{{Proc: "P1", Iteration: 0, At: 0}, {Proc: "P1", Iteration: 1, At: 0}}},
	}
	for i, sc := range cases {
		if _, err := Simulate(s, in.Graph, in.Arch, in.Spec, sc, Config{}); err == nil {
			t.Errorf("case %d: expected scenario validation error", i)
		}
	}
}

func TestDefaultIterations(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.Basic, 0)
	res, err := Simulate(s, in.Graph, in.Arch, in.Spec, Scenario{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Errorf("default iterations = %d, want 1", len(res.Iterations))
	}
}

func TestCrashMidOperation(t *testing.T) {
	in := paperex.BusInstance()
	s := schedule(t, in, core.FT1, 1)
	// Find the main replica of A and kill its processor halfway through.
	main := s.MainReplica("A")
	mid := (main.Start + main.End) / 2
	res := simulate(t, in, s, Single(main.Proc, 0, mid), 1)
	ir := res.Iterations[0]
	if !ir.Completed {
		t.Fatalf("mid-operation crash lost outputs: %+v", ir)
	}
	// The killed replica must not have produced a value used downstream:
	// the backup's completion bounds the response.
	if ir.ResponseTime <= 0 {
		t.Error("no response recorded")
	}
}

func TestSingleHelper(t *testing.T) {
	sc := Single("P1", 2, 3.5)
	if len(sc.Failures) != 1 || sc.Failures[0].Proc != "P1" ||
		sc.Failures[0].Iteration != 2 || sc.Failures[0].At != 3.5 {
		t.Errorf("Single = %+v", sc)
	}
}

func TestSingleSweep(t *testing.T) {
	a := arch.New("a")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddBus("bus", "P1", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	scs := SingleSweep(a, 10, 5)
	if len(scs) != 15 {
		t.Fatalf("len = %d, want 15", len(scs))
	}
	for i, sc := range scs {
		f := sc.Failures
		if len(f) != 1 || f[0].Iteration != 0 || f[0].Proc != []string{"P1", "P2", "P3"}[i/5] {
			t.Errorf("scenario %d = %+v", i, sc)
		}
	}
}

func TestSingleSweepCrashDates(t *testing.T) {
	a := arch.New("a")
	if err := a.AddProcessor("P1"); err != nil {
		t.Fatal(err)
	}
	scs := SingleSweep(a, 10, 5)
	if len(scs) != 5 {
		t.Fatalf("len = %d, want 5", len(scs))
	}
	for i, sc := range scs {
		if at := sc.Failures[0].At; at != 2.5*float64(i) {
			t.Errorf("date %d = %v, want %v", i, at, 2.5*float64(i))
		}
	}
	if got := SingleSweep(a, 10, 1); len(got) != 1 || got[0].Failures[0].At != 0 {
		t.Errorf("n=1: %+v", got)
	}
	if got := SingleSweep(a, 10, 0); got != nil {
		t.Errorf("n=0: %+v", got)
	}
}
