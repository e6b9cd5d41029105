package certify_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func TestCertifyFT1BusPaperExample(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, in.K)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !v.Certified {
		t.Fatalf("FT1 bus schedule not certified for K=%d:\n%s", in.K, v.Report())
	}
	if v.Counterexample != nil {
		t.Errorf("certified verdict carries a counterexample")
	}
	if v.Procs != 3 || v.PatternsChecked != 3 || v.PatternsImplied != 1 {
		t.Errorf("pattern accounting = (%d procs, %d checked, %d implied), want (3, 3, 1)",
			v.Procs, v.PatternsChecked, v.PatternsImplied)
	}
	if v.FailureFreeBound <= 0 || v.FailureFreeBound > res.Schedule.Makespan()+1e-6 {
		t.Errorf("failure-free bound %g outside (0, makespan %g]", v.FailureFreeBound, res.Schedule.Makespan())
	}
	if v.WorstBound < v.FailureFreeBound {
		t.Errorf("worst transient bound %g below failure-free bound %g", v.WorstBound, v.FailureFreeBound)
	}
	if v.WorstSteadyBound > v.WorstBound+1e-6 {
		t.Errorf("steady bound %g exceeds transient bound %g", v.WorstSteadyBound, v.WorstBound)
	}
}

func TestCertifyFT2TrianglePaperExample(t *testing.T) {
	in := paperex.TriangleInstance()
	res, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT2: %v", err)
	}
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, in.K)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !v.Certified {
		t.Fatalf("FT2 triangle schedule not certified for K=%d:\n%s", in.K, v.Report())
	}
	if v.WorstSteadyBound != v.WorstBound {
		t.Errorf("FT2 has no timeouts: steady bound %g should equal transient bound %g",
			v.WorstSteadyBound, v.WorstBound)
	}
}

func TestCertifyRejectsBasicSchedule(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleBasic: %v", err)
	}
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if v.Certified {
		t.Fatalf("basic schedule certified for K=1")
	}
	ce := v.Counterexample
	if ce == nil {
		t.Fatalf("rejected verdict without counterexample")
	}
	if len(ce.FailureSet) != 1 {
		t.Errorf("minimal counterexample %v, want a single processor", ce.FailureSet)
	}
	if ce.Output == "" || len(ce.Path) == 0 {
		t.Errorf("counterexample lacks output (%q) or path (%d lines)", ce.Output, len(ce.Path))
	}
	rep := v.Report()
	if !strings.Contains(rep, "REJECTED") || !strings.Contains(rep, ce.Output) {
		t.Errorf("report missing rejection or output name:\n%s", rep)
	}
}

func TestCertifyBasicAtKZero(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleBasic: %v", err)
	}
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, 0)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !v.Certified {
		t.Fatalf("basic schedule not certified for K=0:\n%s", v.Report())
	}
	if v.PatternsChecked != 1 || v.PatternsImplied != 0 {
		t.Errorf("K=0 accounting = (%d checked, %d implied), want (1, 0)", v.PatternsChecked, v.PatternsImplied)
	}
	if !timeNear(v.WorstBound, v.FailureFreeBound) {
		t.Errorf("K=0 worst bound %g differs from failure-free bound %g", v.WorstBound, v.FailureFreeBound)
	}
}

func TestCertifyRejectsFT1BeyondItsK(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	// Each operation has 2 replicas on 3 processors: some pair of failures
	// must kill both replicas of some operation.
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, 2)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if v.Certified {
		t.Fatalf("K=1 FT1 schedule certified for K=2")
	}
	if v.Counterexample == nil || len(v.Counterexample.FailureSet) != 2 {
		t.Fatalf("counterexample = %+v, want a minimal 2-processor set", v.Counterexample)
	}
}

func TestCertifyErrors(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	if _, err := certify.Certify(nil, in.Graph, in.Arch, in.Spec, 1); err == nil {
		t.Errorf("nil schedule accepted")
	}
	if _, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, -1); err == nil {
		t.Errorf("negative K accepted")
	}
	// A corrupted schedule must be refused up front, not analyzed.
	bad := sched.New(sched.ModeBasic, 0)
	if _, err := certify.Certify(bad, in.Graph, in.Arch, in.Spec, 0); err == nil {
		t.Errorf("empty schedule accepted")
	}
}

func TestCertifiedReportMentionsBounds(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	rep := v.Report()
	for _, want := range []string{"CERTIFIED", "failure-free", "worst transient", "steady state", "monotonicity"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func timeNear(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

// TestCertifyAllocs pins the allocation count of one sequential
// certification across frontier sizes (K=1..3, up to C(12,3) = 220
// patterns) on bus and full-mesh schedules, at 1.25 times the count
// recorded at d19295c. Unlike a time bound it does not depend on the host.
func TestCertifyAllocs(t *testing.T) {
	for _, c := range []struct {
		h          core.Heuristic
		bus        bool
		ops, procs int
		k          int
		patterns   int
		recorded   float64
	}{
		{core.FT1, true, 100, 8, 1, 8, 496},
		{core.FT1, true, 100, 16, 2, 120, 3125},
		{core.FT1, false, 100, 16, 2, 120, 3611},
		{core.FT1, true, 60, 12, 3, 220, 5362},
		{core.FT2, false, 60, 8, 2, 28, 732},
	} {
		name := fmt.Sprintf("%v/bus=%v/%dx%d/k%d", c.h, c.bus, c.ops, c.procs, c.k)
		in, err := workload.RandomInstance(rand.New(rand.NewSource(int64(c.ops*100+c.procs))), c.ops, c.procs, c.bus, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var v *certify.Verdict
		allocs := testing.AllocsPerRun(3, func() {
			if v, err = certify.CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, c.k, certify.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if !v.Certified || v.PatternsChecked != c.patterns {
			t.Errorf("%s: certified %v with %d patterns, want certified with %d", name, v.Certified, v.PatternsChecked, c.patterns)
		}
		limit := 1.25 * c.recorded
		t.Logf("%s: %.0f allocs (limit %.0f)", name, allocs, limit)
		if allocs > limit {
			t.Errorf("%s: CertifyWith made %.0f allocations, pinned at %.0f", name, allocs, limit)
		}
	}
}
