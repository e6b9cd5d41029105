package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ftsched/internal/paperex"
	"ftsched/internal/sched"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestBasicOnPaperBusValidatesAndPinsMakespan(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleBasic(in.Graph, in.Arch, in.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// Regression pin for the deterministic run (heuristic output, not a
	// paper value).
	if got := r.Schedule.Makespan(); !almostEq(got, 9.9) {
		t.Errorf("deterministic basic bus makespan = %v, want 9.9", got)
	}
	if r.MinReplication != 1 {
		t.Errorf("MinReplication = %d, want 1", r.MinReplication)
	}
}

func TestFT1OnPaperBusMatchesFig17(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// The paper's Fig. 17 reports makespan 9.4; the deterministic run
	// reproduces it exactly.
	if got := r.Schedule.Makespan(); !almostEq(got, paperex.PaperMakespans.FT1Bus) {
		t.Errorf("FT1 bus makespan = %v, paper reports %v", got, paperex.PaperMakespans.FT1Bus)
	}
	if r.MinReplication != 2 {
		t.Errorf("MinReplication = %d, want 2", r.MinReplication)
	}
}

func TestBasicTunedOnPaperTriangleMatchesFig24(t *testing.T) {
	in := paperex.TriangleInstance()
	r, err := ScheduleTuned(Basic, in.Graph, in.Arch, in.Spec, 0, 50, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// The paper's Fig. 24 reports makespan 8.0 for the non-fault-tolerant
	// schedule on the triangle; the tuned search finds it.
	if got := r.Schedule.Makespan(); !almostEq(got, paperex.PaperMakespans.BasicP2P) {
		t.Errorf("tuned basic triangle makespan = %v, paper reports %v", got, paperex.PaperMakespans.BasicP2P)
	}
}

func TestFT2OnPaperTriangleValidates(t *testing.T) {
	in := paperex.TriangleInstance()
	r, err := ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// No timeouts in the second solution: every comm is active.
	if got := r.Schedule.NumPassiveComms(); got != 0 {
		t.Errorf("FT2 schedule has %d passive comms, want 0", got)
	}
	// Regression pin (paper's Fig. 22 reports 8.9 with its own tie-breaks;
	// see EXPERIMENTS.md).
	if got := r.Schedule.Makespan(); !almostEq(got, 9.9) {
		t.Errorf("deterministic FT2 triangle makespan = %v, want 9.9", got)
	}
}

func TestFTOverheadIsPositiveOnPaperInstances(t *testing.T) {
	bus := paperex.BusInstance()
	tri := paperex.TriangleInstance()
	const seeds = 50

	basicBus, err := ScheduleTuned(Basic, bus.Graph, bus.Arch, bus.Spec, 0, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ft1, err := ScheduleTuned(FT1, bus.Graph, bus.Arch, bus.Spec, 1, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ov := ft1.Schedule.Overhead(basicBus.Schedule); ov <= 0 {
		t.Errorf("FT1 overhead on bus = %v, want > 0 (Section 6.6 shape)", ov)
	}

	basicTri, err := ScheduleTuned(Basic, tri.Graph, tri.Arch, tri.Spec, 0, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ft2, err := ScheduleTuned(FT2, tri.Graph, tri.Arch, tri.Spec, 1, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ov := ft2.Schedule.Overhead(basicTri.Schedule); ov <= 0 {
		t.Errorf("FT2 overhead on triangle = %v, want > 0 (Section 7.4 shape)", ov)
	}
}

func TestDeterminism(t *testing.T) {
	in := paperex.BusInstance()
	for _, h := range []Heuristic{Basic, FT1, FT2} {
		r1, err := Schedule(h, in.Graph, in.Arch, in.Spec, 1, Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		r2, err := Schedule(h, in.Graph, in.Arch, in.Spec, 1, Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if g1, g2 := r1.Schedule.Gantt(), r2.Schedule.Gantt(); g1 != g2 {
			t.Errorf("%v: two deterministic runs differ:\n%s\nvs\n%s", h, g1, g2)
		}
	}
}

func TestSeededRunsAreReproducible(t *testing.T) {
	in := paperex.BusInstance()
	r1, err := ScheduleBasic(in.Graph, in.Arch, in.Spec, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ScheduleBasic(in.Graph, in.Arch, in.Spec, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Schedule.Gantt() != r2.Schedule.Gantt() {
		t.Error("same seed must reproduce the same schedule")
	}
}

func TestAllHeuristicsAllArchsValidate(t *testing.T) {
	instances := map[string]*paperex.Instance{
		"bus":      paperex.BusInstance(),
		"triangle": paperex.TriangleInstance(),
	}
	for name, in := range instances {
		for _, h := range []Heuristic{Basic, FT1, FT2} {
			for k := 0; k <= 1; k++ {
				if h == Basic && k > 0 {
					continue
				}
				r, err := Schedule(h, in.Graph, in.Arch, in.Spec, k, Options{})
				if err != nil {
					t.Errorf("%s/%v/K=%d: %v", name, h, k, err)
					continue
				}
				if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
					t.Errorf("%s/%v/K=%d invalid:\n%v", name, h, k, err)
				}
			}
		}
	}
}

func TestInfeasibleKTooLarge(t *testing.T) {
	in := paperex.BusInstance()
	// I and O can only run on P1 and P2, so K=2 (3 replicas) is infeasible.
	_, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 2, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	_, err = ScheduleFT2(in.Graph, in.Arch, in.Spec, 2, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestAllowDegraded(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 2, Options{AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}
	if r.MinReplication != 2 {
		t.Errorf("MinReplication = %d, want 2 (extios limited to two processors)", r.MinReplication)
	}
	// Fully replicable comps must still get K+1 = 3 replicas.
	if got := len(r.Schedule.Replicas("A")); got != 3 {
		t.Errorf("A has %d replicas, want 3", got)
	}
	if got := len(r.Schedule.Replicas("I")); got != 2 {
		t.Errorf("I has %d replicas, want 2 (degraded)", got)
	}
}

func TestNegativeK(t *testing.T) {
	in := paperex.BusInstance()
	if _, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, -1, Options{}); err == nil {
		t.Error("FT1 with negative K must fail")
	}
	if _, err := ScheduleFT2(in.Graph, in.Arch, in.Spec, -1, Options{}); err == nil {
		t.Error("FT2 with negative K must fail")
	}
}

func TestNegativeSeeds(t *testing.T) {
	in := paperex.BusInstance()
	for _, opts := range []Options{{}, {Deadline: 100}} {
		r, err := ScheduleTuned(FT1, in.Graph, in.Arch, in.Spec, 1, -1, opts)
		if err == nil || r != nil {
			t.Fatalf("deadline %g: ScheduleTuned with seeds -1 = (%v, %v), want an error", opts.Deadline, r, err)
		}
		if want := "core: negative seeds (-1)"; err.Error() != want {
			t.Errorf("error %q, want %q", err, want)
		}
	}
}

func TestKZeroFTEquivalentStructure(t *testing.T) {
	in := paperex.BusInstance()
	for _, h := range []Heuristic{FT1, FT2} {
		r, err := Schedule(h, in.Graph, in.Arch, in.Spec, 0, Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := r.Schedule.Validate(in.Graph, in.Arch, in.Spec); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if r.Schedule.NumOpSlots() != in.Graph.NumOps() {
			t.Errorf("%v K=0: %d op slots, want %d", h, r.Schedule.NumOpSlots(), in.Graph.NumOps())
		}
		if r.Schedule.NumPassiveComms() != 0 {
			t.Errorf("%v K=0: passive comms present", h)
		}
	}
}

func TestFT1MessageMinimality(t *testing.T) {
	// Section 6.4: each data-dependency leads to at most K+1 inter-processor
	// communications; on a single bus the broadcast makes it at most one
	// active transfer per (dependency, sending replica), and only the main
	// replica sends.
	in := paperex.BusInstance()
	r, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perEdge := map[string]int{}
	for _, l := range r.Schedule.Links() {
		for _, c := range r.Schedule.LinkSlots(l) {
			if c.Passive {
				continue
			}
			if c.SenderRank != 0 {
				t.Errorf("active transfer of %s sent by backup rank %d", c.Edge, c.SenderRank)
			}
			perEdge[c.Edge.String()]++
		}
	}
	for e, n := range perEdge {
		if n > in.K+1 {
			t.Errorf("dependency %s has %d active transfers, want <= %d", e, n, in.K+1)
		}
	}
}

func TestFT1TimeoutChain(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each passive slot activates only after its timeout, and the timeout
	// equals the worst-case completion of the previous-ranked transfer.
	passives := 0
	for _, l := range r.Schedule.Links() {
		for _, c := range r.Schedule.LinkSlots(l) {
			if !c.Passive {
				continue
			}
			passives++
			if c.Hop == 0 && c.Start < c.Timeout-1e-9 {
				t.Errorf("passive transfer of %s starts at %g before its timeout %g", c.Edge, c.Start, c.Timeout)
			}
			if c.SenderRank < 1 {
				t.Errorf("passive transfer of %s has sender rank %d, want >= 1", c.Edge, c.SenderRank)
			}
			// The backup sender must actually hold the value: a replica of
			// the producer on the sending processor completing before Start.
			rep := r.Schedule.ReplicaOn(c.Edge.Src, c.SrcProc)
			if c.Hop == 0 {
				if rep == nil {
					t.Errorf("passive sender %q has no replica of %q", c.SrcProc, c.Edge.Src)
				} else if rep.End > c.Start+1e-9 {
					t.Errorf("passive transfer of %s starts at %g before its sender completes at %g", c.Edge, c.Start, rep.End)
				}
			}
		}
	}
	if passives == 0 {
		t.Error("FT1 with K=1 should produce passive backup transfers")
	}
}

func TestFT2CommReplication(t *testing.T) {
	// Section 7.1: a consumer replica colocated with any replica of its
	// producer gets the value intra-processor and no transfer is committed
	// to its processor; otherwise every producer replica sends to it.
	in := paperex.TriangleInstance()
	r, err := ScheduleFT2(in.Graph, in.Arch, in.Spec, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	for _, e := range in.Graph.Edges() {
		if e.Delayed() {
			continue
		}
		prodProcs := map[string]bool{}
		for _, rep := range s.Replicas(e.Src()) {
			prodProcs[rep.Proc] = true
		}
		for _, cons := range s.Replicas(e.Dst()) {
			// Count transfers of e delivered to cons.Proc.
			senders := map[string]bool{}
			for _, hops := range s.Transfers() {
				last := hops[len(hops)-1]
				if last.Edge == e.Key() && last.DstProc == cons.Proc {
					senders[last.SrcProc] = true
				}
			}
			if prodProcs[cons.Proc] {
				if len(senders) != 0 {
					t.Errorf("edge %s: consumer on %q is colocated with a producer replica but receives %d transfers",
						e.Key(), cons.Proc, len(senders))
				}
				continue
			}
			if len(senders) != len(prodProcs) {
				t.Errorf("edge %s: consumer on %q receives from %d senders, want %d",
					e.Key(), cons.Proc, len(senders), len(prodProcs))
			}
		}
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != in.Graph.NumOps() {
		t.Fatalf("trace has %d steps, want %d", len(r.Trace), in.Graph.NumOps())
	}
	first := r.Trace[0]
	if first.Step != 1 || first.Selected != "I" {
		t.Errorf("first step = %+v", first)
	}
	if len(first.Procs) != 2 {
		t.Errorf("first step placed on %v, want 2 processors", first.Procs)
	}
	for _, st := range r.Trace {
		if len(st.Candidates) == 0 || len(st.Pressures) == 0 {
			t.Errorf("step %d misses candidates or pressures", st.Step)
		}
	}
}

func TestNoTraceByDefault(t *testing.T) {
	in := paperex.BusInstance()
	r, err := ScheduleBasic(in.Graph, in.Arch, in.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != nil {
		t.Error("trace recorded without Options.Trace")
	}
}

func TestHeuristicString(t *testing.T) {
	if Basic.String() != "basic" || FT1.String() != "ft1" || FT2.String() != "ft2" {
		t.Error("heuristic names")
	}
	if !strings.Contains(Heuristic(9).String(), "9") {
		t.Error("unknown heuristic name")
	}
	if _, err := Schedule(Heuristic(9), nil, nil, nil, 0, Options{}); err == nil {
		t.Error("unknown heuristic must error")
	}
}

func TestParseHeuristic(t *testing.T) {
	for _, h := range []Heuristic{Basic, FT1, FT2} {
		if got, err := ParseHeuristic(h.String()); err != nil || got != h {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
	_, err := ParseHeuristic("FT1")
	if want := `unknown heuristic "FT1" (want basic, ft1, or ft2)`; err == nil || err.Error() != want {
		t.Errorf("ParseHeuristic(FT1) error = %v, want %s", err, want)
	}
}

func TestScheduleModesAreTagged(t *testing.T) {
	in := paperex.BusInstance()
	cases := []struct {
		h    Heuristic
		mode sched.Mode
	}{{Basic, sched.ModeBasic}, {FT1, sched.ModeFT1}, {FT2, sched.ModeFT2}}
	for _, c := range cases {
		r, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Schedule.Mode != c.mode {
			t.Errorf("%v produced mode %v", c.h, r.Schedule.Mode)
		}
	}
}
