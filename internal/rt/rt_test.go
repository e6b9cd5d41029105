package rt

import (
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

func TestAnalyzeFT1PaperInstance(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(r.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !an.AllDelivered {
		t.Fatal("FT1 K=1 must deliver under every single failure")
	}
	if an.FailureFree != 8.0 {
		t.Errorf("failure-free response = %v, want 8", an.FailureFree)
	}
	// The worst transient over all (proc, date) pairs is the P2 crash: 10.5.
	if an.WorstTransient < 10.5-1e-6 || an.WorstTransient > 12 {
		t.Errorf("worst transient = %v, expected about 10.5", an.WorstTransient)
	}
	if an.WorstPermanent < an.FailureFree || an.WorstPermanent > an.WorstTransient+1e-9 {
		t.Errorf("worst permanent = %v outside [%v, %v]", an.WorstPermanent, an.FailureFree, an.WorstTransient)
	}
	if an.ScenariosChecked == 0 {
		t.Error("no scenarios checked")
	}
	if len(an.WorstScenario.Failures) != 1 {
		t.Errorf("worst scenario = %+v", an.WorstScenario)
	}
	// Deadline verdicts at the three interesting thresholds.
	if an.MeetsDeadline(8.0) {
		t.Error("8.0 cannot cover the transient penalty")
	}
	if !an.MeetsDeadline(an.WorstTransient) {
		t.Error("the worst transient bound itself must pass")
	}
}

func TestAnalyzeFT2SupportsK2(t *testing.T) {
	// K=2 on a 4-processor mesh: simultaneous pairs are included.
	in := paperex.TriangleInstance()
	r, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(r.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !an.AllDelivered {
		t.Error("FT2 K=1 must deliver under every single failure")
	}
	if an.WorstTransient < an.FailureFree {
		t.Error("worst transient below failure-free")
	}
}

func TestAnalyzeBasicIsNotTolerant(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(r.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if an.AllDelivered {
		t.Error("the baseline schedule cannot deliver under every failure")
	}
	if an.MeetsDeadline(1e9) {
		t.Error("undelivered outputs must fail any deadline")
	}
}

func TestAnalyzeKZero(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(r.Schedule, in.Graph, in.Arch, in.Spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.ScenariosChecked != 0 {
		t.Errorf("K=0 checked %d scenarios, want 0", an.ScenariosChecked)
	}
	if an.WorstTransient != an.FailureFree || !an.AllDelivered {
		t.Errorf("K=0 analysis = %+v", an)
	}
	if !an.MeetsDeadline(an.FailureFree) {
		t.Error("failure-free bound must pass as its own deadline")
	}
}

func TestAnalyzeNegativeK(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(r.Schedule, in.Graph, in.Arch, in.Spec, -1); err == nil {
		t.Error("negative K must error")
	}
}

func TestEventBoundaries(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dates := eventBoundaries(r.Schedule)
	if len(dates) < 10 {
		t.Errorf("only %d boundaries", len(dates))
	}
	for i := 1; i < len(dates); i++ {
		if dates[i] <= dates[i-1] {
			t.Fatal("boundaries not strictly increasing")
		}
	}
	if dates[0] != 0 {
		t.Errorf("first boundary = %v", dates[0])
	}
}

func TestAnalyzeK2IncludesPairs(t *testing.T) {
	// A K=2 FT2 schedule on a 4-processor mesh: the analysis must include
	// every simultaneous pair and still certify delivery.
	g := paperex.Algorithm()
	a, err := workload.FullMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Costs(rand.New(rand.NewSource(7)), g, a,
		workload.CostParams{MeanExec: 1.5, Spread: 0.3, CCR: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.ScheduleFT2(g, a, sp, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(r.Schedule, g, a, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !an.AllDelivered {
		t.Error("FT2 K=2 must deliver under every pair of simultaneous failures")
	}
	// singles: 4 procs x boundaries; pairs: C(4,2) = 6 more.
	if an.ScenariosChecked < 6 {
		t.Errorf("only %d scenarios checked", an.ScenariosChecked)
	}
	if an.WorstTransient < an.FailureFree {
		t.Error("worst transient below failure-free")
	}
}

// TestAnalyzeMatchesPerScenarioSimulate pins the compile-once sweep (one
// Runner reused across every scenario) to the same sweep run through
// sim.Simulate, which compiles a fresh model per scenario: the paper's bus
// (FT1) and triangle (FT2) examples and a generated FT1 K=1 bus schedule.
// Besides the Analysis, every scenario's Result must match, so state a
// reused Runner fails to rewind cannot hide behind the sweep's maxima.
func TestAnalyzeMatchesPerScenarioSimulate(t *testing.T) {
	bus, tri := paperex.BusInstance(), paperex.TriangleInstance()
	r := rand.New(rand.NewSource(1))
	gen, err := workload.RandomInstance(r, 20+r.Intn(31), 4+r.Intn(3), true, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		h    core.Heuristic
		g    *graph.Graph
		a    *arch.Architecture
		sp   *spec.Spec
	}{
		{"paper-bus/ft1", core.FT1, bus.Graph, bus.Arch, bus.Spec},
		{"paper-triangle/ft2", core.FT2, tri.Graph, tri.Arch, tri.Spec},
		{"random-bus/ft1", core.FT1, gen.Graph, gen.Arch, gen.Spec},
	}
	type simulateFunc = func(sim.Scenario, sim.Config) (*sim.Result, error)
	recording := func(run simulateFunc, into *[]*sim.Result) simulateFunc {
		return func(sc sim.Scenario, cfg sim.Config) (*sim.Result, error) {
			res, err := run(sc, cfg)
			*into = append(*into, res)
			return res, err
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := core.Schedule(c.h, c.g, c.a, c.sp, 1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(res.Schedule, c.g, c.a, c.sp, 1)
			if err != nil {
				t.Fatal(err)
			}
			var fresh, reused []*sim.Result
			want, err := analyze(res.Schedule, c.a, 1, recording(func(sc sim.Scenario, cfg sim.Config) (*sim.Result, error) {
				return sim.Simulate(res.Schedule, c.g, c.a, c.sp, sc, cfg)
			}, &fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("compile-once analysis differs from per-scenario Simulate:\n got  %+v\n want %+v", got, want)
			}
			m, err := sim.Compile(res.Schedule, c.g, c.a, c.sp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := analyze(res.Schedule, c.a, 1, recording(m.NewRunner().Run, &reused)); err != nil {
				t.Fatal(err)
			}
			if len(fresh) < 2 || len(reused) != len(fresh) {
				t.Fatalf("simulated %d scenarios on the reused Runner, %d fresh", len(reused), len(fresh))
			}
			for i := range fresh {
				if !reflect.DeepEqual(reused[i], fresh[i]) {
					t.Fatalf("scenario %d: reused Runner gives %+v, fresh model %+v", i, reused[i], fresh[i])
				}
			}
		})
	}
}

func TestSubsets(t *testing.T) {
	procs := []string{"P1", "P2", "P3", "P4"}
	want := [][]string{{"P1", "P2"}, {"P1", "P3"}, {"P1", "P4"}, {"P2", "P3"}, {"P2", "P4"}, {"P3", "P4"}}
	if got := subsets(procs, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("k=2: %v, want %v", got, want)
	}
	if got := subsets(procs, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("k=0: %v", got)
	}
	if got := subsets(procs, 5); len(got) != 0 {
		t.Errorf("k>n: %v", got)
	}
}
