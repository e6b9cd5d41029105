package sched

import (
	"math"
	"sort"
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// fixture builds a two-op chain A->B, two processors joined by one link,
// unit costs: exec(A)=1, exec(B)=2 everywhere, comm(A->B)=0.5.
type fixture struct {
	g  *graph.Graph
	a  *arch.Architecture
	sp *spec.Spec
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g := graph.New("g")
	if err := g.AddComp("A"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddComp("B"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	a := arch.New("a")
	_ = a.AddProcessor("P1")
	_ = a.AddProcessor("P2")
	if err := a.AddLink("L", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New()
	for _, op := range []string{"A", "B"} {
		d := 1.0
		if op == "B" {
			d = 2.0
		}
		for _, p := range []string{"P1", "P2"} {
			if err := sp.SetExec(op, p, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sp.SetComm(graph.EdgeKey{Src: "A", Dst: "B"}, "L", 0.5); err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, a: a, sp: sp}
}

// validBasic builds a correct basic schedule: A on P1 [0,1], comm [1,1.5],
// B on P2 [1.5,3.5].
func validBasic(f *fixture) *Schedule {
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Replica: 0, Start: 1.5, End: 3.5})
	s.AddCommSlot(CommSlot{
		Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
		From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2",
		TransferID: s.NewTransferID(), Hop: 0, Start: 1, End: 1.5,
	})
	return s
}

func TestValidateAcceptsCorrectBasic(t *testing.T) {
	f := newFixture(t)
	s := validBasic(f)
	if err := s.Validate(f.g, f.a, f.sp); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestMakespanAndMetrics(t *testing.T) {
	f := newFixture(t)
	s := validBasic(f)
	if got := s.Makespan(); got != 3.5 {
		t.Errorf("Makespan = %v", got)
	}
	if got := s.NumOpSlots(); got != 2 {
		t.Errorf("NumOpSlots = %d", got)
	}
	if got := s.NumActiveComms(); got != 1 {
		t.Errorf("NumActiveComms = %d", got)
	}
	if got := s.NumPassiveComms(); got != 0 {
		t.Errorf("NumPassiveComms = %d", got)
	}
	if got := s.TotalActiveCommTime(); got != 0.5 {
		t.Errorf("TotalActiveCommTime = %v", got)
	}
	if got := s.ProcBusyTime("P1"); got != 1 {
		t.Errorf("ProcBusyTime(P1) = %v", got)
	}
	if got := s.Utilization("P2"); math.Abs(got-2/3.5) > 1e-9 {
		t.Errorf("Utilization(P2) = %v", got)
	}
	if got := New(ModeBasic, 0).Utilization("P1"); got != 0 {
		t.Errorf("empty Utilization = %v", got)
	}
	base := validBasic(f)
	if got := s.Overhead(base); got != 0 {
		t.Errorf("Overhead vs self = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeBasic.String() != "basic" || ModeFT1.String() != "ft1" || ModeFT2.String() != "ft2" {
		t.Error("mode strings")
	}
	if !strings.Contains(Mode(7).String(), "7") {
		t.Error("unknown mode string")
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t)
	s := validBasic(f)
	if got := s.Procs(); len(got) != 2 || got[0] != "P1" {
		t.Errorf("Procs = %v", got)
	}
	if got := s.Links(); len(got) != 1 || got[0] != "L" {
		t.Errorf("Links = %v", got)
	}
	if s.MainReplica("A") == nil || s.MainReplica("zz") != nil {
		t.Error("MainReplica")
	}
	if s.ReplicaOn("A", "P1") == nil || s.ReplicaOn("A", "P2") != nil {
		t.Error("ReplicaOn")
	}
	reps := s.Replicas("A")
	if len(reps) != 1 || !reps[0].Main() {
		t.Errorf("Replicas = %v", reps)
	}
	tr := s.Transfers()
	if len(tr) != 1 || len(tr[0]) != 1 || tr[0][0].Duration() != 0.5 {
		t.Errorf("Transfers = %v", tr)
	}
}

func TestValidateMissingOp(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), `"B" is not scheduled`) {
		t.Errorf("want missing-op error, got %v", err)
	}
}

func TestValidateOverlapOnProc(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Start: 0.5, End: 2.5})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("want overlap error, got %v", err)
	}
}

func TestValidateWrongDuration(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 2}) // should be 1
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Start: 2, End: 4})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "spec says") {
		t.Errorf("want duration error, got %v", err)
	}
}

func TestValidateForbiddenProcessor(t *testing.T) {
	f := newFixture(t)
	_ = f.sp.SetExec("A", "P1", spec.Inf)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Start: 1, End: 3})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "forbidden") {
		t.Errorf("want forbidden error, got %v", err)
	}
}

func TestValidateNegativeStart(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: -1, End: 0})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Start: 0, End: 2})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "< 0") {
		t.Errorf("want negative-start error, got %v", err)
	}
}

func TestValidateMissingInputDelivery(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Start: 1.5, End: 3.5})
	// No comm slot: B never receives A's value.
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "never receives input") {
		t.Errorf("want missing-input error, got %v", err)
	}
}

func TestValidateStartsBeforeArrival(t *testing.T) {
	f := newFixture(t)
	s := validBasic(f)
	// Move B before the comm completes.
	for _, sl := range s.procs["P2"] {
		sl.Start, sl.End = 1.0, 3.0
	}
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "before input") {
		t.Errorf("want early-start error, got %v", err)
	}
}

func TestValidateCommBeforeProducer(t *testing.T) {
	f := newFixture(t)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Start: 1, End: 3})
	s.AddCommSlot(CommSlot{
		Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
		From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2",
		TransferID: 0, Hop: 0, Start: 0.5, End: 1.0, // starts before A ends
	})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "before producer ends") {
		t.Errorf("want comm-causality error, got %v", err)
	}
}

func TestValidateLinkOverlap(t *testing.T) {
	f := newFixture(t)
	// Add a second edge so two comms exist.
	_ = f.g.AddComp("C")
	_ = f.g.Connect("A", "C")
	_ = f.sp.SetExec("C", "P1", 1)
	_ = f.sp.SetExec("C", "P2", 1)
	_ = f.sp.SetComm(graph.EdgeKey{Src: "A", Dst: "C"}, "L", 0.5)
	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Start: 1.5, End: 3.5})
	s.AddOpSlot(OpSlot{Op: "C", Proc: "P2", Start: 3.5, End: 4.5})
	s.AddCommSlot(CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
		From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2", TransferID: 0, Hop: 0, Start: 1, End: 1.5})
	s.AddCommSlot(CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "C"}, Link: "L",
		From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2", TransferID: 1, Hop: 0, Start: 1.25, End: 1.75})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("want link-overlap error, got %v", err)
	}
}

// TestValidateZeroLengthTransfer: a zero-duration transfer is checked in
// the order the executive sends it (SendsBefore). Sharing its date with a
// transfer recorded before it is fine, since it is sent first; inside a
// busy transfer it would wait for that transfer to end, so it overlaps.
func TestValidateZeroLengthTransfer(t *testing.T) {
	for _, tc := range []struct {
		name        string
		abStart     float64 // date of the zero-length A->B transfer
		wantOverlap string
	}{
		{"shares a start", 1, ""},
		{"at the end", 1.5, ""},
		{"inside a busy transfer", 1.1, "A->C [1,1.5] overlaps A->B [1.1,1.1]"},
	} {
		f := newFixture(t)
		_ = f.sp.SetComm(graph.EdgeKey{Src: "A", Dst: "B"}, "L", 0)
		_ = f.g.AddComp("C")
		_ = f.g.Connect("A", "C")
		_ = f.sp.SetExec("C", "P2", 1)
		_ = f.sp.SetComm(graph.EdgeKey{Src: "A", Dst: "C"}, "L", 0.5)
		s := New(ModeBasic, 0)
		s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
		s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Start: 1.5, End: 3.5})
		s.AddOpSlot(OpSlot{Op: "C", Proc: "P2", Start: 3.5, End: 4.5})
		// A->C is recorded first, with the lower transfer ID.
		s.AddCommSlot(CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "C"}, Link: "L",
			From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2", TransferID: 0, Hop: 0, Start: 1, End: 1.5})
		s.AddCommSlot(CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
			From: "P1", To: "P2", SrcProc: "P1", DstProc: "P2", TransferID: 1, Hop: 0, Start: tc.abStart, End: tc.abStart})
		err := s.Validate(f.g, f.a, f.sp)
		if tc.wantOverlap == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.wantOverlap != "" && (err == nil || !strings.Contains(err.Error(), tc.wantOverlap)) {
			t.Errorf("%s: want %q, got %v", tc.name, tc.wantOverlap, err)
		}
	}
}

// TestSendsBefore: equal starts put a zero-length hop first, whatever its
// transfer ID; otherwise the start date, then the transfer ID and hop index
// decide.
func TestSendsBefore(t *testing.T) {
	long := &CommSlot{TransferID: 0, Start: 3, End: 3.5}
	zero := &CommSlot{TransferID: 1, Start: 3, End: 3}
	later := &CommSlot{TransferID: 0, Start: 3.5, End: 3.5}
	hop1 := &CommSlot{TransferID: 1, Hop: 1, Start: 3, End: 3}
	for _, tc := range []struct {
		a, b *CommSlot
		want bool
	}{
		{zero, long, true}, {long, zero, false},
		{long, later, true}, {later, zero, false},
		{zero, hop1, true}, {hop1, zero, false},
		{long, long, false},
	} {
		if got := SendsBefore(tc.a, tc.b); got != tc.want {
			t.Errorf("SendsBefore(%+v, %+v) = %v, want %v", *tc.a, *tc.b, got, tc.want)
		}
	}
}

func TestValidatePassiveSlotsMayOverlap(t *testing.T) {
	f := newFixture(t)
	s := New(ModeFT1, 1)
	// A and B are both replicated on P1 and P2; all inputs are local.
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P2", Replica: 1, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Replica: 0, Start: 1, End: 3})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Replica: 1, Start: 1, End: 3})
	// Two overlapping passive reservations are fine: at most one activates.
	for i := 0; i < 2; i++ {
		s.AddCommSlot(CommSlot{
			Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
			From: "P2", To: "P1", SrcProc: "P2", DstProc: "P1",
			SenderRank: 1, TransferID: s.NewTransferID(), Hop: 0,
			Start: 2, End: 2.5, Passive: true, Timeout: 2,
		})
	}
	if err := s.Validate(f.g, f.a, f.sp); err != nil {
		t.Fatalf("passive overlap should be legal: %v", err)
	}
}

func TestValidateReplicaStructureFT(t *testing.T) {
	f := newFixture(t)
	s := New(ModeFT1, 1)
	// Only one replica of each op: must fail for K=1.
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Replica: 0, Start: 1, End: 3})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "replicas, want 2") {
		t.Errorf("want replica-count error, got %v", err)
	}
}

func TestValidateDuplicateReplicaProc(t *testing.T) {
	f := newFixture(t)
	s := New(ModeFT1, 1)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 1, Start: 1, End: 2})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Replica: 0, Start: 2, End: 4})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Replica: 1, Start: 4, End: 6})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "two replicas on processor") {
		t.Errorf("want duplicate-proc error, got %v", err)
	}
}

func TestValidateReplicaRankOrder(t *testing.T) {
	f := newFixture(t)
	s := New(ModeFT1, 1)
	// Rank 0 ends later than rank 1: election order violated.
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 2, End: 3})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P2", Replica: 1, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P1", Replica: 0, Start: 3, End: 5})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Replica: 1, Start: 5, End: 7})
	err := s.Validate(f.g, f.a, f.sp)
	if err == nil || !strings.Contains(err.Error(), "completion order") {
		t.Errorf("want rank-order error, got %v", err)
	}
}

func TestValidateBroadcastDelivery(t *testing.T) {
	// On a bus, a single broadcast slot delivers to every processor.
	g := graph.New("g")
	_ = g.AddComp("A")
	_ = g.AddComp("B")
	_ = g.Connect("A", "B")
	a := arch.New("a")
	for _, p := range []string{"P1", "P2", "P3"} {
		_ = a.AddProcessor(p)
	}
	_ = a.AddBus("bus", "P1", "P2", "P3")
	sp := spec.New()
	for _, op := range []string{"A", "B"} {
		for _, p := range []string{"P1", "P2", "P3"} {
			_ = sp.SetExec(op, p, 1)
		}
	}
	_ = sp.SetComm(graph.EdgeKey{Src: "A", Dst: "B"}, "bus", 0.5)

	s := New(ModeFT1, 1)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Replica: 0, Start: 0, End: 1})
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P2", Replica: 1, Start: 0, End: 1})
	s.AddCommSlot(CommSlot{
		Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "bus",
		From: "P1", To: "", SrcProc: "P1", DstProc: "",
		TransferID: 0, Hop: 0, Start: 1, End: 1.5, Broadcast: true,
	})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P3", Replica: 0, Start: 1.5, End: 2.5})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P2", Replica: 1, Start: 1.5, End: 2.5})
	if err := s.Validate(g, a, sp); err != nil {
		t.Fatalf("broadcast delivery should validate: %v", err)
	}
}

func TestValidateMultiHopChain(t *testing.T) {
	// P1 - P2 - P3 chain; B on P3 receives A's value via two hops.
	g := graph.New("g")
	_ = g.AddComp("A")
	_ = g.AddComp("B")
	_ = g.Connect("A", "B")
	a := arch.New("a")
	for _, p := range []string{"P1", "P2", "P3"} {
		_ = a.AddProcessor(p)
	}
	_ = a.AddLink("L12", "P1", "P2")
	_ = a.AddLink("L23", "P2", "P3")
	sp := spec.New()
	for _, op := range []string{"A", "B"} {
		for _, p := range []string{"P1", "P2", "P3"} {
			_ = sp.SetExec(op, p, 1)
		}
	}
	e := graph.EdgeKey{Src: "A", Dst: "B"}
	_ = sp.SetComm(e, "L12", 0.5)
	_ = sp.SetComm(e, "L23", 0.5)

	s := New(ModeBasic, 0)
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	id := s.NewTransferID()
	s.AddCommSlot(CommSlot{Edge: e, Link: "L12", From: "P1", To: "P2",
		SrcProc: "P1", DstProc: "P3", TransferID: id, Hop: 0, Start: 1, End: 1.5})
	s.AddCommSlot(CommSlot{Edge: e, Link: "L23", From: "P2", To: "P3",
		SrcProc: "P1", DstProc: "P3", TransferID: id, Hop: 1, Start: 1.5, End: 2})
	s.AddOpSlot(OpSlot{Op: "B", Proc: "P3", Start: 2, End: 3})
	if err := s.Validate(g, a, sp); err != nil {
		t.Fatalf("multi-hop chain should validate: %v", err)
	}

	// Break the chain: second hop departs from the wrong processor.
	s2 := New(ModeBasic, 0)
	s2.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	id2 := s2.NewTransferID()
	s2.AddCommSlot(CommSlot{Edge: e, Link: "L12", From: "P1", To: "P2",
		SrcProc: "P1", DstProc: "P3", TransferID: id2, Hop: 0, Start: 1, End: 1.5})
	s2.AddCommSlot(CommSlot{Edge: e, Link: "L23", From: "P3", To: "P3",
		SrcProc: "P1", DstProc: "P3", TransferID: id2, Hop: 1, Start: 1.5, End: 2})
	s2.AddOpSlot(OpSlot{Op: "B", Proc: "P3", Start: 2, End: 3})
	if err := s2.Validate(g, a, sp); err == nil {
		t.Fatal("broken hop chain must not validate")
	}

	// Causality violation along the chain.
	s3 := New(ModeBasic, 0)
	s3.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 1})
	id3 := s3.NewTransferID()
	s3.AddCommSlot(CommSlot{Edge: e, Link: "L12", From: "P1", To: "P2",
		SrcProc: "P1", DstProc: "P3", TransferID: id3, Hop: 0, Start: 1, End: 1.5})
	s3.AddCommSlot(CommSlot{Edge: e, Link: "L23", From: "P2", To: "P3",
		SrcProc: "P1", DstProc: "P3", TransferID: id3, Hop: 1, Start: 1.2, End: 1.7})
	s3.AddOpSlot(OpSlot{Op: "B", Proc: "P3", Start: 2, End: 3})
	if err := s3.Validate(g, a, sp); err == nil {
		t.Fatal("hop starting before previous hop ends must not validate")
	}
}

func TestGanttAndTable(t *testing.T) {
	f := newFixture(t)
	s := validBasic(f)
	gantt := s.Gantt()
	for _, frag := range []string{"basic schedule", "makespan=3.5", "P1", "A*", "A->B"} {
		if !strings.Contains(gantt, frag) {
			t.Errorf("Gantt missing %q:\n%s", frag, gantt)
		}
	}
	table := s.Table()
	for _, frag := range []string{"op A replica 0 (main)", "comm A->B P1->P2", "1.5\t3.5\tP2"} {
		if !strings.Contains(table, frag) {
			t.Errorf("Table missing %q:\n%s", frag, table)
		}
	}
	// Passive slots render with their timeout.
	s.AddCommSlot(CommSlot{Edge: graph.EdgeKey{Src: "A", Dst: "B"}, Link: "L",
		From: "P2", To: "P1", SrcProc: "P2", DstProc: "P1", SenderRank: 1,
		TransferID: s.NewTransferID(), Start: 2, End: 2.5, Passive: true, Timeout: 2})
	if !strings.Contains(s.Gantt(), "t/o 2") {
		t.Error("Gantt should render passive timeouts")
	}
	if !strings.Contains(s.Table(), "[passive, timeout 2]") {
		t.Error("Table should render passive timeouts")
	}
}

func TestFmtTime(t *testing.T) {
	cases := map[float64]string{0: "0", 1.5: "1.5", 2: "2", 9.4: "9.4", 0.125: "0.125"}
	for in, want := range cases {
		if got := fmtTime(in); got != want {
			t.Errorf("fmtTime(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestValidateReportsViolationsDeterministically(t *testing.T) {
	f := newFixture(t)
	build := func() *Schedule {
		// Several independent violations at once: B unscheduled, A on a
		// forbidden duration, and a slot on an unknown processor.
		s := New(ModeBasic, 0)
		s.AddOpSlot(OpSlot{Op: "A", Proc: "P1", Start: 0, End: 3})
		s.AddOpSlot(OpSlot{Op: "A", Proc: "P9", Start: 0, End: 1})
		return s
	}
	first := build().Validate(f.g, f.a, f.sp)
	if first == nil {
		t.Fatal("invalid schedule accepted")
	}
	for i := 0; i < 20; i++ {
		err := build().Validate(f.g, f.a, f.sp)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("validation message changed between runs:\n%v\nvs\n%v", first, err)
		}
	}
	lines := strings.Split(first.Error(), "\n  ")[1:]
	if !sort.StringsAreSorted(lines) {
		t.Errorf("violations not sorted:\n%v", first)
	}
	if len(lines) < 2 {
		t.Fatalf("fixture should trip several violations, got %d:\n%v", len(lines), first)
	}
}
