package spec_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// meshInstance is the design workload's largest document shape: a
// 300-operation problem on an 8-processor full mesh.
func meshInstance(tb testing.TB) (*workload.Instance, []byte) {
	tb.Helper()
	inst, err := workload.RandomInstance(rand.New(rand.NewSource(1)), 300, 8, false, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := inst.Spec.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return inst, data
}

// TestMarshalMatchesReference compares the encoder byte for byte with
// json.Marshal on every graph generator over bus, ring and mesh
// architectures, and decodes each document back to the same table.
func TestMarshalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	layered, err := workload.LayeredDAG(r, workload.GraphParams{Ops: 40, Width: 8, EdgeProb: 0.4, WithIO: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"layered": layered}
	for name, gen := range map[string]func() (*graph.Graph, error){
		"forkjoin": func() (*graph.Graph, error) { return workload.ForkJoin(4, 3) },
		"pipeline": func() (*graph.Graph, error) { return workload.Pipeline(6) },
		"fft":      func() (*graph.Graph, error) { return workload.FFT(8) },
		"gauss":    func() (*graph.Graph, error) { return workload.GaussianElimination(5) },
		"diamond":  func() (*graph.Graph, error) { return workload.Diamond(4) },
		"control":  func() (*graph.Graph, error) { return workload.ControlLoop(3, 2) },
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
			if err := workload.RestrictExtIOs(sp, g, a, 2); err != nil {
				t.Fatal(err)
			}
			checkCodec(t, gname+"/"+aname, sp)
			if got, _ := sp.MarshalJSON(); cap(got) != len(got) {
				t.Errorf("%s/%s: buffer cap %d for %d bytes: the size pass is not exact", gname, aname, cap(got), len(got))
			}
		}
	}
}

// TestMarshalEdgeCases covers names encoding/json escapes, Inf entries and
// empty tables.
func TestMarshalEdgeCases(t *testing.T) {
	checkCodec(t, "empty", spec.New())
	sp := spec.New()
	for _, name := range []string{`a"b`, `<x>&y`, `back\slash`, "sep  ", "ctl\x01\x7f", "bad\xffutf8", "é😀"} {
		if err := sp.SetExec(name, "P1", 1.25); err != nil {
			t.Fatal(err)
		}
		if err := sp.SetExec(name, "P2", spec.Inf); err != nil {
			t.Fatal(err)
		}
		if err := sp.SetComm(graph.EdgeKey{Src: name, Dst: "B"}, name, 1e-7); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []float64{0, 1e21, 123456789.125, 1e-300, 5e-324} {
		if err := sp.SetExec("d", "P1", d); err != nil {
			t.Fatal(err)
		}
		if err := sp.SetComm(graph.EdgeKey{Src: "d", Dst: "e"}, "L", d); err != nil {
			t.Fatal(err)
		}
		checkCodec(t, "values", sp)
	}
	onlyComm := spec.New()
	if err := onlyComm.SetComm(graph.EdgeKey{Src: "A", Dst: "B"}, "L", 0.5); err != nil {
		t.Fatal(err)
	}
	checkCodec(t, "comm only", onlyComm)
}

func checkCodec(t *testing.T, name string, sp *spec.Spec) {
	t.Helper()
	got, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(name, err)
	}
	want, err := spec.RefMarshal(sp)
	if err != nil {
		t.Fatal(name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON\n%s\njson.Marshal\n%s", name, got, want)
	}
	var back spec.Spec
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	ref, err := spec.RefUnmarshal(got)
	if err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	again, _ := back.MarshalJSON()
	refAgain, _ := spec.RefMarshalMaps(ref)
	if !bytes.Equal(again, refAgain) {
		t.Fatalf("%s: decoded table changed on re-encoding", name)
	}
}

// growthAllocs bounds the allocations of the tables themselves: their
// name lists, maps and matrices grow by doubling, or are reserved from
// the document's size, so their count is logarithmic in the table's size.
const growthAllocs = 128

// TestDecodeAllocs pins the decoder's allocations on a fixed document to
// one per distinct name plus the tables' growth, never one per row or
// entry.
func TestDecodeAllocs(t *testing.T) {
	inst, data := meshInstance(t)
	names := inst.Graph.NumOps() + inst.Arch.NumProcessors() + inst.Arch.NumLinks()
	rows := inst.Graph.NumOps() + len(inst.Graph.Edges())
	entries := bytes.Count(data, []byte(`"duration"`))
	var sp spec.Spec
	allocs := testing.AllocsPerRun(3, func() {
		if err := sp.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	limit := names + growthAllocs
	t.Logf("%d bytes, %d entries, %d names, %d rows: %.0f allocs (limit %d)",
		len(data), entries, names, rows, allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("decode made %.0f allocations, pinned at %d", allocs, limit)
	}
}

func BenchmarkSpecDecode(b *testing.B) {
	_, data := meshInstance(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sp spec.Spec
		if err := sp.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecDecodeReference(b *testing.B) {
	_, data := meshInstance(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.RefUnmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAvgExecDeterministic pins the averages the pressure table is built
// from: on the design workload's mesh shape, repeated calls return the
// same bits, and those of the sum over the processors in declaration
// order.
func TestAvgExecDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		inst, err := workload.RandomInstance(rand.New(rand.NewSource(seed)), 100, 8, false, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		procs := inst.Arch.ProcessorNames()
		for _, op := range inst.Graph.OpNames() {
			sum, n := 0.0, 0
			for _, p := range procs {
				if d := inst.Spec.Exec(op, p); !math.IsInf(d, 1) {
					sum += d
					n++
				}
			}
			want := math.Float64bits(sum / float64(n))
			for i := 0; i < 3; i++ {
				if got := math.Float64bits(inst.Spec.AvgExec(op)); got != want {
					t.Fatalf("seed %d: AvgExec(%s) call %d = %v, want the declaration-order mean %v",
						seed, op, i, math.Float64frombits(got), math.Float64frombits(want))
				}
			}
		}
	}
}
