package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// problem is one schedule with the graph, architecture and constraints it
// was produced for.
type problem struct {
	name string
	g    *graph.Graph
	a    *arch.Architecture
	sp   *spec.Spec
	s    *sched.Schedule
}

var (
	corpusOnce sync.Once
	corpus     []problem
	corpusErr  error
)

// schedules returns core's schedules of every graph generator on a bus, a
// ring and a full mesh under Basic, FT1 and FT2 with K <= 2, plus the
// paper's two examples under FT1 and FT2.
func schedules(tb testing.TB) []problem {
	tb.Helper()
	corpusOnce.Do(func() { corpus, corpusErr = buildCorpus() })
	if corpusErr != nil {
		tb.Fatal(corpusErr)
	}
	return corpus
}

func buildCorpus() ([]problem, error) {
	r := rand.New(rand.NewSource(11))
	type namedGraph struct {
		name string
		gen  func() (*graph.Graph, error)
	}
	graphs := []namedGraph{
		{"layered", func() (*graph.Graph, error) {
			return workload.LayeredDAG(r, workload.GraphParams{Ops: 24, Width: 6, EdgeProb: 0.4, WithIO: true})
		}},
		{"forkjoin", func() (*graph.Graph, error) { return workload.ForkJoin(3, 3) }},
		{"pipeline", func() (*graph.Graph, error) { return workload.Pipeline(5) }},
		{"fft", func() (*graph.Graph, error) { return workload.FFT(4) }},
		{"gauss", func() (*graph.Graph, error) { return workload.GaussianElimination(4) }},
		{"diamond", func() (*graph.Graph, error) { return workload.Diamond(3) }},
		{"control", func() (*graph.Graph, error) { return workload.ControlLoop(2, 2) }},
	}
	archs := []struct {
		name string
		mk   func(int) (*arch.Architecture, error)
	}{{"bus", workload.BusArch}, {"ring", workload.Ring}, {"mesh", workload.FullMesh}}
	runs := []struct {
		h core.Heuristic
		k int
	}{{core.Basic, 0}, {core.FT1, 1}, {core.FT1, 2}, {core.FT2, 1}, {core.FT2, 2}}

	var out []problem
	add := func(name string, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, h core.Heuristic, k int) error {
		res, err := core.Schedule(h, g, a, sp, k, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, problem{name: name, g: g, a: a, sp: sp, s: res.Schedule})
		return nil
	}
	for _, gr := range graphs {
		g, err := gr.gen()
		if err != nil {
			return nil, err
		}
		for _, ar := range archs {
			a, err := ar.mk(4)
			if err != nil {
				return nil, err
			}
			sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
			if err != nil {
				return nil, err
			}
			for _, run := range runs {
				if err := add(fmt.Sprintf("%s/%s/%s/K=%d", gr.name, ar.name, run.h, run.k), g, a, sp, run.h, run.k); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, ex := range []struct {
		name string
		in   *paperex.Instance
		h    core.Heuristic
	}{{"paper/bus", paperex.BusInstance(), core.FT1}, {"paper/triangle", paperex.TriangleInstance(), core.FT2}} {
		if err := add(ex.name, ex.in.Graph, ex.in.Arch, ex.in.Spec, ex.h, ex.in.K); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestCompileMatchesReference compares the one-pass Compile with the
// two-pass reference on every corpus schedule, and checks that CompileValid
// and Validate accept them.
func TestCompileMatchesReference(t *testing.T) {
	for _, p := range schedules(t) {
		want, err := sched.RefCompile(p.s, p.g, p.a, p.sp)
		if err != nil {
			t.Fatalf("%s: reference: %v", p.name, err)
		}
		got, err := sched.Compile(p.s, p.g, p.a, p.sp)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Compile differs from the reference", p.name)
		}
		valid, err := sched.CompileValid(p.s, p.g, p.a, p.sp)
		if err != nil {
			t.Fatalf("%s: CompileValid: %v", p.name, err)
		}
		if !reflect.DeepEqual(valid, want) {
			t.Errorf("%s: CompileValid differs from the reference", p.name)
		}
		if err := p.s.Validate(p.g, p.a, p.sp); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// mutate copies s slot by slot, applying the mutations data encodes: four
// bytes each, a kind, a 16-bit target and a parameter. The mutations shift
// dates, move a slot to another processor or link, drop a slot, rename a
// name to one the problem does not declare, flip Passive or Broadcast, and
// change a transfer ID, hop index, sender rank or timeout. Dates move by
// multiples of 0.25, so the copy never has a near-tie the original lacks.
func mutate(s *sched.Schedule, a *arch.Architecture, data []byte) *sched.Schedule {
	var ops []sched.OpSlot
	for _, p := range s.Procs() {
		for _, sl := range s.ProcSlots(p) {
			ops = append(ops, *sl)
		}
	}
	var comms []sched.CommSlot
	for _, l := range s.Links() {
		for _, c := range s.LinkSlots(l) {
			comms = append(comms, *c)
		}
	}
	procs := append(a.ProcessorNames(), "PX", "")
	links := append(a.LinkNames(), "LX")
	for ; len(data) >= 4; data = data[4:] {
		kind, target, param := data[0]%16, int(data[1])|int(data[2])<<8, data[3]
		delta := float64(int(param)-128) / 4
		if kind < 4 && len(ops) > 0 {
			sl := &ops[target%len(ops)]
			switch kind {
			case 0:
				sl.Start += delta
				sl.End += delta
			case 1:
				sl.Proc = procs[int(param)%len(procs)]
			case 2:
				ops = append(ops[:target%len(ops)], ops[target%len(ops)+1:]...)
			case 3:
				sl.Op = "OX"
			}
			continue
		}
		if kind < 4 || len(comms) == 0 {
			continue
		}
		i := target % len(comms)
		c := &comms[i]
		switch kind {
		case 4:
			c.Start += delta
			c.End += delta
		case 5:
			c.End += delta
		case 6:
			c.Link = links[int(param)%len(links)]
		case 7:
			comms = append(comms[:i], comms[i+1:]...)
		case 8:
			switch p := procs[int(param/4)%len(procs)]; param % 4 {
			case 0:
				c.From = p
			case 1:
				c.To = p
			case 2:
				c.SrcProc = p
			default:
				c.DstProc = p
			}
		case 9:
			if param%2 == 0 {
				c.Edge.Src = "OX"
			} else {
				c.Edge.Dst = "OX"
			}
		case 10:
			c.Passive = !c.Passive
		case 11:
			c.Broadcast = !c.Broadcast
		case 12:
			if param%2 == 0 {
				c.TransferID = comms[int(param)%len(comms)].TransferID
			} else {
				c.TransferID = 1<<30 + int(param) // IDs too sparse to bucket
			}
		case 13:
			c.Hop = int(param % 4)
		case 14:
			c.SenderRank = int(param % 4)
		default:
			c.Timeout += delta
		}
	}
	out := sched.New(s.Mode, s.K)
	for _, sl := range ops {
		out.AddOpSlot(sl)
	}
	for _, c := range comms {
		out.AddCommSlot(c)
	}
	return out
}

// TestValidateEmptyProcessorName checks a producer placed on a processor
// named "" that sends the first slot of its link: the pass must resolve the
// name like any other undeclared one, as the string validator does.
func TestValidateEmptyProcessorName(t *testing.T) {
	in := paperex.BusInstance()
	s := sched.New(sched.ModeBasic, 0)
	s.AddOpSlot(sched.OpSlot{Op: "I", Proc: "", Start: 0, End: 1})
	s.AddOpSlot(sched.OpSlot{Op: "A", Proc: "P2", Start: 3, End: 5})
	s.AddCommSlot(sched.CommSlot{Edge: graph.EdgeKey{Src: "I", Dst: "A"}, Link: in.Arch.LinkNames()[0],
		From: "", SrcProc: "", Start: 1, End: 2.25, Broadcast: true})
	want := errText(sched.RefValidate(s, in.Graph, in.Arch, in.Spec))
	if got := errText(s.Validate(in.Graph, in.Arch, in.Spec)); got != want {
		t.Fatalf("Validate:\n%s\nreference:\n%s", got, want)
	}
	if strings.Contains(want, `no replica of "I"`) {
		t.Fatalf("the reference should find I's replica on \"\":\n%s", want)
	}
}

// errText renders err for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzValidateDifferential mutates corpus schedules and checks that
// Validate reports exactly what the string-view reference reports, that
// Compile fails with the reference's first error, and that a valid
// mutant compiles to the reference's form.
func FuzzValidateDifferential(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(7), []byte{0, 3, 0, 140})
	f.Add(uint16(40), []byte{4, 1, 0, 100, 12, 9, 0, 3})
	f.Add(uint16(71), []byte{8, 2, 0, 5, 6, 0, 1, 4})
	f.Add(uint16(93), []byte{1, 5, 0, 4, 9, 2, 0, 1})
	f.Add(uint16(101), []byte{10, 0, 0, 0, 11, 4, 0, 0, 13, 2, 0, 1})
	f.Fuzz(func(t *testing.T, pick uint16, data []byte) {
		if len(data) > 64 {
			return
		}
		all := schedules(t)
		p := all[int(pick)%len(all)]
		s := mutate(p.s, p.a, data)

		want := errText(sched.RefValidate(s, p.g, p.a, p.sp))
		err := s.Validate(p.g, p.a, p.sp)
		if got := errText(err); got != want {
			t.Fatalf("%s: Validate:\n%s\nreference:\n%s", p.name, got, want)
		}
		var invalid *sched.InvalidError
		if err != nil && !errors.As(err, &invalid) {
			t.Fatalf("%s: Validate returned %T, want *InvalidError", p.name, err)
		}

		ref, refErr := sched.RefCompile(s, p.g, p.a, p.sp)
		c, cErr := sched.Compile(s, p.g, p.a, p.sp)
		if errText(cErr) != errText(refErr) {
			t.Fatalf("%s: Compile error %q, reference %q", p.name, errText(cErr), errText(refErr))
		}
		valid, vErr := sched.CompileValid(s, p.g, p.a, p.sp)
		switch {
		case err != nil:
			if errText(vErr) != want {
				t.Fatalf("%s: CompileValid error %q, want the validation error", p.name, errText(vErr))
			}
		case errText(vErr) != errText(cErr):
			t.Fatalf("%s: CompileValid error %q, Compile %q", p.name, errText(vErr), errText(cErr))
		case cErr == nil:
			if !reflect.DeepEqual(c, ref) || !reflect.DeepEqual(valid, ref) {
				t.Fatalf("%s: a valid mutant compiles differently from the reference", p.name)
			}
		}
	})
}
