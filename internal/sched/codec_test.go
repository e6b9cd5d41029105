package sched_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func checkMarshal(t *testing.T, name string, s *sched.Schedule) {
	t.Helper()
	got, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(name, err)
	}
	want, err := sched.RefMarshal(s)
	if err != nil {
		t.Fatal(name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON\n%s\njson.Marshal\n%s", name, got, want)
	}
}

// TestMarshalMatchesReference compares the encoder byte for byte with
// json.Marshal on Basic, FT1 and FT2 schedules of every graph generator
// over bus, ring and mesh architectures.
func TestMarshalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	layered, err := workload.LayeredDAG(r, workload.GraphParams{Ops: 30, Width: 6, EdgeProb: 0.4, WithIO: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"layered": layered}
	for name, gen := range map[string]func() (*graph.Graph, error){
		"forkjoin": func() (*graph.Graph, error) { return workload.ForkJoin(3, 3) },
		"pipeline": func() (*graph.Graph, error) { return workload.Pipeline(5) },
		"fft":      func() (*graph.Graph, error) { return workload.FFT(4) },
		"gauss":    func() (*graph.Graph, error) { return workload.GaussianElimination(4) },
		"diamond":  func() (*graph.Graph, error) { return workload.Diamond(3) },
		"control":  func() (*graph.Graph, error) { return workload.ControlLoop(2, 2) },
	} {
		if graphs[name], err = gen(); err != nil {
			t.Fatal(name, err)
		}
	}
	archs := map[string]func(int) (*arch.Architecture, error){
		"bus": workload.BusArch, "ring": workload.Ring, "mesh": workload.FullMesh,
	}
	for gname, g := range graphs {
		for aname, mk := range archs {
			a, err := mk(4)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
				k := 1
				if h == core.Basic {
					k = 0
				}
				res, err := core.Schedule(h, g, a, sp, k, core.Options{})
				if err != nil {
					t.Fatal(gname, aname, h, err)
				}
				name := gname + "/" + aname + "/" + res.Schedule.Mode.String()
				checkMarshal(t, name, res.Schedule)
				if got, _ := res.Schedule.MarshalJSON(); cap(got) != len(got) {
					t.Errorf("%s: buffer cap %d for %d bytes: the size pass is not exact", name, cap(got), len(got))
				}
			}
		}
	}
}

// TestMarshalEdgeCases covers names encoding/json escapes, the omitted
// zero-valued members, extreme dates and an empty schedule.
func TestMarshalEdgeCases(t *testing.T) {
	checkMarshal(t, "empty", sched.New(sched.ModeBasic, 0))
	s := sched.New(sched.ModeFT1, 2)
	names := []string{`a"b`, `<x>&y`, `back\slash`, "sep  ", "ctl\x01\x7f", "bad\xffutf8", "é😀"}
	for i, n := range names {
		s.AddOpSlot(sched.OpSlot{Op: n, Proc: n, Replica: i, Start: float64(i) * 1e-7, End: 1e21 + float64(i)})
		s.AddCommSlot(sched.CommSlot{
			Edge: graph.EdgeKey{Src: n, Dst: n}, Link: n, From: n, To: names[(i+1)%len(names)],
			SrcProc: n, DstProc: n, SenderRank: i % 2, TransferID: s.NewTransferID(), Hop: i,
			Start: math.Copysign(0, -1), End: 123456789.125, Passive: i%2 == 1, Timeout: float64(i%3) * 0.1,
			Broadcast: i%3 == 0,
		})
	}
	s.AddCommSlot(sched.CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L", From: "P", SrcProc: "P",
		Start: 5e-324, End: 1.7976931348623157e308, Timeout: math.Copysign(0, -1)})
	checkMarshal(t, "edge cases", s)
	onlyComms := sched.New(sched.ModeFT2, 1)
	onlyComms.AddCommSlot(sched.CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L", From: "P", SrcProc: "P", End: 1})
	checkMarshal(t, "comms only", onlyComms)
}

// TestMarshalRejectsNonFiniteDates keeps json.Marshal's refusal of dates
// JSON cannot hold.
func TestMarshalRejectsNonFiniteDates(t *testing.T) {
	for _, d := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		s := sched.New(sched.ModeBasic, 0)
		s.AddOpSlot(sched.OpSlot{Op: "A", Proc: "P", End: d})
		if _, err := sched.RefMarshal(s); err == nil {
			t.Fatalf("reference accepted %v", d)
		}
		if _, err := s.MarshalJSON(); err == nil {
			t.Errorf("MarshalJSON accepted end date %v", d)
		}
	}
}

func busSchedule(tb testing.TB, ops int) *sched.Schedule {
	tb.Helper()
	in, err := workload.RandomInstance(rand.New(rand.NewSource(1)), ops, 8, true, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Schedule
}

// marshalAllocs pins MarshalJSON on a finished schedule to its one output
// buffer: the size pass reads the memoized sorted views.
const marshalAllocs = 1

func TestMarshalAllocs(t *testing.T) {
	s := busSchedule(t, 60)
	if _, err := s.MarshalJSON(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > marshalAllocs {
		t.Errorf("MarshalJSON made %.0f allocations, pinned at %d", allocs, marshalAllocs)
	}
}

// BenchmarkScheduleMarshal encodes a 400-operation FT1 bus schedule whose
// sorted views are already memoized, as after Validate.
func BenchmarkScheduleMarshal(b *testing.B) {
	s := busSchedule(b, 400)
	if _, err := s.MarshalJSON(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleMarshalReference(b *testing.B) {
	s := busSchedule(b, 400)
	if _, err := sched.RefMarshal(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RefMarshal(s); err != nil {
			b.Fatal(err)
		}
	}
}
