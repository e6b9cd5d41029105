package sched

import (
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// problem builds a graph, an architecture and unit WCETs/comm costs over
// them. Processors and links are declared in the order given, which the
// tests choose to differ from name order.
func problem(t *testing.T, ops []string, edges [][2]string, procs []string, links []string) *fixture {
	t.Helper()
	g := graph.New("g")
	for _, op := range ops {
		if err := g.AddComp(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	a := arch.New("a")
	for _, p := range procs {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		if err := a.AddLink(l, procs[0], procs[1]); err != nil {
			t.Fatal(err)
		}
	}
	sp := spec.New()
	for _, op := range ops {
		for _, p := range procs {
			if err := sp.SetExec(op, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range edges {
		for _, l := range links {
			if err := sp.SetComm(graph.EdgeKey{Src: e[0], Dst: e[1]}, l, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &fixture{g: g, a: a, sp: sp}
}

func comm(s *Schedule, src, dst, link, from, to string, id int, start float64) {
	s.AddCommSlot(CommSlot{
		Edge: graph.EdgeKey{Src: src, Dst: dst}, Link: link,
		From: from, To: to, SrcProc: from, DstProc: to,
		TransferID: id, Start: start, End: start + 0.5,
	})
}

func TestCompileIDOrder(t *testing.T) {
	// Declaration order is the reverse of name order everywhere, so a
	// compile that sorted names would fail every assertion below.
	f := problem(t, []string{"Z", "A"}, [][2]string{{"Z", "A"}}, []string{"P2", "P1"}, []string{"L2", "L1"})
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "Z", Proc: "P2", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 1.5, End: 2.5})
	comm(s, "Z", "A", "L1", "P2", "P1", 0, 1)

	c, err := Compile(s, f.g, f.a, f.sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.ProcNames, []string{"P2", "P1"}) ||
		!reflect.DeepEqual(c.LinkNames, []string{"L2", "L1"}) ||
		!reflect.DeepEqual(c.OpNames, []string{"Z", "A"}) {
		t.Fatalf("names = %v %v %v, want declaration order", c.ProcNames, c.LinkNames, c.OpNames)
	}
	if !reflect.DeepEqual(c.Edges, []graph.EdgeKey{{Src: "Z", Dst: "A"}}) {
		t.Errorf("Edges = %v", c.Edges)
	}
	if !reflect.DeepEqual(c.SeqStart, []int32{0, 1, 2}) {
		t.Errorf("SeqStart = %v", c.SeqStart)
	}
	wantInsts := []Inst{{Op: 0, Proc: 0, Start: 0, End: 1}, {Op: 1, Proc: 1, Start: 1.5, End: 2.5}}
	if !reflect.DeepEqual(c.Insts, wantInsts) {
		t.Errorf("Insts = %+v, want %+v", c.Insts, wantInsts)
	}
	// InstAt is op-major: Z@P2, Z@P1, A@P2, A@P1.
	if !reflect.DeepEqual(c.InstAt, []int32{0, -1, -1, 1}) {
		t.Errorf("InstAt = %v", c.InstAt)
	}
	if !reflect.DeepEqual(c.PredStart, []int32{0, 0, 1}) || !reflect.DeepEqual(c.Preds, []Pred{{Op: 0, Edge: 0}}) {
		t.Errorf("PredStart = %v, Preds = %v", c.PredStart, c.Preds)
	}
	if len(c.Hops) != 1 || c.Hops[0] != (Hop{Link: 1, From: 0, Dur: 0.5}) {
		t.Errorf("Hops = %+v, want one hop on L1 (ID 1) from P2 (ID 0)", c.Hops)
	}
	if !reflect.DeepEqual(c.QueueStart, []int32{0, 0, 1}) {
		t.Errorf("QueueStart = %v, want the only entry on L1", c.QueueStart)
	}
	if !reflect.DeepEqual(c.Receivers, []int32{1}) {
		t.Errorf("Receivers = %v, want [P1]", c.Receivers)
	}

	for name, want := range map[string]int32{"P2": 0, "P1": 1} {
		if id, ok := c.ProcID(name); !ok || id != want {
			t.Errorf("ProcID(%s) = %d, %v; want %d", name, id, ok, want)
		}
	}
	for name, want := range map[string]int32{"L2": 0, "L1": 1} {
		if id, ok := c.LinkID(name); !ok || id != want {
			t.Errorf("LinkID(%s) = %d, %v; want %d", name, id, ok, want)
		}
	}
	if _, ok := c.ProcID("P9"); ok {
		t.Error("ProcID(P9) found an undeclared processor")
	}
	if _, ok := c.LinkID("L9"); ok {
		t.Error("LinkID(L9) found an undeclared link")
	}
}

func TestCompileReplicaOrder(t *testing.T) {
	f := problem(t, []string{"A"}, nil, []string{"P2", "P1", "P3"}, nil)
	s := New(ModeFT2, 2)
	// Ranks 1 tie on purpose (a malformed schedule): Replicas breaks the
	// tie by processor name, and so must the compiled form.
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P3", Replica: 1, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P2", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 1, Start: 0, End: 1})
	c, err := Compile(s, f.g, f.a, f.sp)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, i := range c.OpInsts[c.OpInstStart[0]:c.OpInstStart[1]] {
		got = append(got, c.ProcNames[c.Insts[i].Proc])
	}
	var want []string
	for _, sl := range s.Replicas("A") {
		want = append(want, sl.Proc)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, []string{"P2", "P1", "P3"}) {
		t.Errorf("replicas of A = %v, want %v (Replicas order)", got, want)
	}
}

func TestCompileLinkQueueOrder(t *testing.T) {
	f := problem(t, []string{"A", "B", "C", "D"},
		[][2]string{{"A", "B"}, {"A", "C"}, {"A", "D"}}, []string{"P1", "P2"}, []string{"L"})
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	for _, op := range []string{"B", "C", "D"} {
		s.AddOpSlot(OpSlot{Op: op, Proc: "P2", Start: 3, End: 4})
	}
	// Static order is start date, then transfer ID: D starts first; C and
	// B start within 1e-9 of each other, so C's lower ID puts it ahead of
	// B although it starts later.
	comm(s, "A", "B", "L", "P1", "P2", 5, 2)
	comm(s, "A", "C", "L", "P1", "P2", 3, 2+5e-10)
	comm(s, "A", "D", "L", "P1", "P2", 7, 1)
	c, err := Compile(s, f.g, f.a, f.sp)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, q := range c.Queue[c.QueueStart[0]:c.QueueStart[1]] {
		d := c.Deliveries[c.Senders[q.Sender].Delivery]
		got = append(got, c.OpNames[d.DstOp])
	}
	if want := []string{"D", "C", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("queue on L carries transfers to %v, want %v", got, want)
	}
}

func TestCompileOutputsVersusSinks(t *testing.T) {
	// Headless graph: every sink is an output.
	f := problem(t, []string{"S", "X", "Y"}, [][2]string{{"S", "X"}, {"S", "Y"}}, []string{"P1", "P2"}, nil)
	s := New(ModeBasic, 0)
	for i, op := range []string{"S", "X", "Y"} {
		s.AddOpSlot(OpSlot{Op: op, Proc: "P1", Start: float64(i), End: float64(i + 1)})
	}
	c, err := Compile(s, f.g, f.a, f.sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Outputs, []int32{1, 2}) {
		t.Errorf("headless Outputs = %v, want the sinks [1 2]", c.Outputs)
	}

	// With an extio actuator, only it counts: the comp sink X does not.
	if err := f.g.AddExtIO("Out"); err != nil {
		t.Fatal(err)
	}
	if err := f.g.Connect("Y", "Out"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"P1", "P2"} {
		if err := f.sp.SetExec("Out", p, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.AddOpSlot(OpSlot{Op: "Out", Proc: "P1", Start: 3, End: 4})
	c, err = Compile(s, f.g, f.a, f.sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Outputs, []int32{3}) {
		t.Errorf("Outputs = %v, want only the actuator [3]", c.Outputs)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Schedule)
		want  string
	}{
		{"unknown processor", func(s *Schedule) {
			s.AddOpSlot(OpSlot{Op: "A", Proc: "P9", Start: 0, End: 1})
		}, `unknown processor "P9"`},
		{"unknown operation", func(s *Schedule) {
			s.AddOpSlot(OpSlot{Op: "Q", Proc: "P1", Start: 0, End: 1})
		}, `unknown operation "Q"`},
		{"unknown link", func(s *Schedule) {
			comm(s, "A", "B", "L9", "P1", "P2", 0, 1)
		}, `unknown link "L9"`},
		{"unknown edge", func(s *Schedule) {
			comm(s, "B", "A", "L", "P2", "P1", 0, 1)
		}, "is not a graph edge"},
		{"unknown sender processor", func(s *Schedule) {
			comm(s, "A", "B", "L", "P9", "P2", 0, 1)
		}, `sender on unknown processor "P9"`},
		{"missing WCET", func(s *Schedule) {
			s.AddOpSlot(OpSlot{Op: "W", Proc: "P2", Start: 0, End: 1})
		}, `"W" has no WCET on processor "P2"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := problem(t, []string{"A", "B"}, [][2]string{{"A", "B"}}, []string{"P1", "P2"}, []string{"L"})
			if err := f.g.AddComp("W"); err != nil {
				t.Fatal(err)
			}
			if err := f.sp.SetExec("W", "P1", 1); err != nil {
				t.Fatal(err)
			}
			s := New(ModeBasic, 0)
			tc.build(s)
			_, err := Compile(s, f.g, f.a, f.sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error = %v, want it to mention %s", err, tc.want)
			}
		})
	}
}
