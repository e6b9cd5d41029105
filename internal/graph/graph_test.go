package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildPaperGraph constructs the Fig. 7/13 algorithm graph:
// I -> A -> {B, C, D} -> E -> O.
func buildPaperGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("paper")
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	mustOK(g.AddExtIO("I"))
	mustOK(g.AddComp("A"))
	mustOK(g.AddComp("B"))
	mustOK(g.AddComp("C"))
	mustOK(g.AddComp("D"))
	mustOK(g.AddComp("E"))
	mustOK(g.AddExtIO("O"))
	for _, e := range [][2]string{
		{"I", "A"}, {"A", "B"}, {"A", "C"}, {"A", "D"},
		{"B", "E"}, {"C", "E"}, {"D", "E"}, {"E", "O"},
	} {
		mustOK(g.Connect(e[0], e[1]))
	}
	return g
}

func TestAddDuplicateOp(t *testing.T) {
	g := New("g")
	if err := g.AddComp("A"); err != nil {
		t.Fatalf("AddComp: %v", err)
	}
	if err := g.AddComp("A"); err == nil {
		t.Fatal("expected duplicate-op error")
	}
	if err := g.AddMem("A"); err == nil {
		t.Fatal("expected duplicate-op error across kinds")
	}
}

func TestAddEmptyName(t *testing.T) {
	g := New("g")
	if err := g.AddComp(""); err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestConnectErrors(t *testing.T) {
	g := New("g")
	if err := g.AddComp("A"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddComp("B"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("A", "X"); err == nil {
		t.Fatal("expected unknown-dst error")
	}
	if err := g.Connect("X", "A"); err == nil {
		t.Fatal("expected unknown-src error")
	}
	if err := g.Connect("A", "A"); err == nil {
		t.Fatal("expected self-dependency error")
	}
	if err := g.Connect("A", "B"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := g.Connect("A", "B"); err == nil {
		t.Fatal("expected duplicate-edge error")
	}
}

func TestKindsAndSafety(t *testing.T) {
	g := New("g")
	_ = g.AddComp("c")
	_ = g.AddMem("m")
	_ = g.AddExtIO("x")
	cases := []struct {
		name string
		kind Kind
		safe bool
	}{
		{"c", KindComp, true},
		{"m", KindMem, true},
		{"x", KindExtIO, false},
	}
	for _, c := range cases {
		op := g.Op(c.name)
		if op == nil {
			t.Fatalf("op %q missing", c.name)
		}
		if op.Kind() != c.kind {
			t.Errorf("op %q kind = %v, want %v", c.name, op.Kind(), c.kind)
		}
		if op.Safe() != c.safe {
			t.Errorf("op %q safe = %v, want %v", c.name, op.Safe(), c.safe)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindComp.String() != "comp" || KindMem.String() != "mem" || KindExtIO.String() != "extio" {
		t.Errorf("unexpected kind strings: %v %v %v", KindComp, KindMem, KindExtIO)
	}
	if s := Kind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestTopoOrderPaperGraph(t *testing.T) {
	g := buildPaperGraph(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src()] >= pos[e.Dst()] {
			t.Errorf("edge %s violates topological order", e.Key())
		}
	}
	// Deterministic: insertion order ties give I A B C D E O exactly.
	want := []string{"I", "A", "B", "C", "D", "E", "O"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New("g")
	_ = g.AddComp("A")
	_ = g.AddComp("B")
	_ = g.Connect("A", "B")
	_ = g.Connect("B", "A")
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("expected Validate to reject cyclic graph")
	}
}

func TestMemBreaksCycle(t *testing.T) {
	// A feedback loop through a mem is legal: the edge into the mem is
	// delayed, so the non-delayed subgraph is acyclic.
	g := New("g")
	_ = g.AddMem("state")
	_ = g.AddComp("step")
	_ = g.AddExtIO("out")
	if err := g.Connect("state", "step"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("step", "state"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("step", "out"); err != nil {
		t.Fatal(err)
	}
	if !g.Edge(EdgeKey{Src: "step", Dst: "state"}).Delayed() {
		t.Error("edge into mem should be delayed")
	}
	if g.Edge(EdgeKey{Src: "state", Dst: "step"}).Delayed() {
		t.Error("edge out of mem should not be delayed")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestValidateExtIORules(t *testing.T) {
	g := New("g")
	_ = g.AddExtIO("io")
	_ = g.AddComp("a")
	_ = g.AddComp("b")
	_ = g.Connect("a", "io")
	_ = g.Connect("io", "b")
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for extio with both preds and succs")
	}

	g2 := New("g2")
	_ = g2.AddExtIO("lonely")
	_ = g2.AddComp("a")
	_ = g2.AddComp("b")
	_ = g2.Connect("a", "b")
	if err := g2.Validate(); err == nil {
		t.Fatal("expected error for disconnected extio")
	}
}

func TestValidateMemNeedsConsumer(t *testing.T) {
	g := New("g")
	_ = g.AddComp("a")
	_ = g.AddMem("m")
	_ = g.Connect("a", "m")
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for mem without consumer")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestSourcesSinksInputsOutputs(t *testing.T) {
	g := buildPaperGraph(t)
	if got := g.Sources(); !reflect.DeepEqual(got, []string{"I"}) {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []string{"O"}) {
		t.Errorf("Sinks = %v", got)
	}
	if got := g.Inputs(); !reflect.DeepEqual(got, []string{"I"}) {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); !reflect.DeepEqual(got, []string{"O"}) {
		t.Errorf("Outputs = %v", got)
	}
}

func TestPredsSuccs(t *testing.T) {
	g := buildPaperGraph(t)
	if got := g.Succs("A"); !reflect.DeepEqual(got, []string{"B", "C", "D"}) {
		t.Errorf("Succs(A) = %v", got)
	}
	if got := g.Preds("E"); !reflect.DeepEqual(got, []string{"B", "C", "D"}) {
		t.Errorf("Preds(E) = %v", got)
	}
	// Returned slices must be copies.
	s := g.Succs("A")
	s[0] = "mutated"
	if got := g.Succs("A"); got[0] != "B" {
		t.Error("Succs returned an aliased slice")
	}
}

func TestStrictPredsSkipsDelayed(t *testing.T) {
	g := New("g")
	_ = g.AddComp("a")
	_ = g.AddMem("m")
	_ = g.AddComp("b")
	_ = g.Connect("a", "m") // delayed
	_ = g.Connect("m", "b")
	_ = g.Connect("a", "b")
	x := g.IDs()
	if got := x.Preds(g.OpID("m")); len(got) != 0 {
		t.Errorf("Preds(m) = %v, want none", got)
	}
	ab := g.EdgeID(EdgeKey{Src: "a", Dst: "b"})
	if got := x.Succs(g.OpID("a")); !reflect.DeepEqual(got, []Arc{{Op: g.OpID("b"), Edge: ab}}) {
		t.Errorf("Succs(a) = %v", got)
	}
	if got := x.Preds(g.OpID("b")); len(got) != 2 || got[1] != (Arc{Op: g.OpID("a"), Edge: ab}) {
		t.Errorf("Preds(b) = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := buildPaperGraph(t)
	c := g.Clone()
	if c.NumOps() != g.NumOps() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone shape mismatch: %d/%d vs %d/%d",
			c.NumOps(), c.NumEdges(), g.NumOps(), g.NumEdges())
	}
	// Mutating the clone must not affect the original.
	if err := c.AddComp("Z"); err != nil {
		t.Fatal(err)
	}
	if g.HasOp("Z") {
		t.Error("clone mutation leaked into original")
	}
	o1, _ := g.TopoOrder()
	c2 := g.Clone()
	o2, _ := c2.TopoOrder()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("clone order %v != original %v", o2, o1)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New("rt")
	_ = g.AddExtIO("in")
	_ = g.AddComp("f")
	_ = g.AddMem("m")
	_ = g.AddExtIO("out")
	_ = g.Connect("in", "f")
	_ = g.Connect("f", "m")
	_ = g.Connect("m", "f")
	_ = g.Connect("f", "out")

	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name() != "rt" || back.NumOps() != 4 || back.NumEdges() != 4 {
		t.Fatalf("round-trip shape: %s", back.Summary())
	}
	if back.Op("m").Kind() != KindMem {
		t.Error("mem kind lost in round trip")
	}
	if !back.Edge(EdgeKey{Src: "f", Dst: "m"}).Delayed() {
		t.Error("delayed flag lost in round trip")
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	var g Graph
	if err := g.UnmarshalJSON([]byte(`{"ops":[{"name":"a","kind":"nope"}]}`)); err == nil {
		t.Fatal("expected unknown-kind error")
	}
	if err := g.UnmarshalJSON([]byte(`not json`)); err == nil {
		t.Fatal("expected syntax error")
	}
	if err := g.UnmarshalJSON([]byte(`{"ops":[{"name":"a","kind":"comp"}],"edges":[{"src":"a","dst":"zz"}]}`)); err == nil {
		t.Fatal("expected bad-edge error")
	}
}

func TestDOT(t *testing.T) {
	g := buildPaperGraph(t)
	dot := g.DOT()
	for _, frag := range []string{`digraph "paper"`, `"I" [shape=diamond]`, `"A" [shape=ellipse]`, `"I" -> "A"`} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	g2 := New("g2")
	_ = g2.AddComp("a")
	_ = g2.AddMem("m")
	_ = g2.Connect("a", "m")
	if !strings.Contains(g2.DOT(), "style=dashed") {
		t.Error("DOT should dash delayed edges")
	}
}

func TestSummary(t *testing.T) {
	g := buildPaperGraph(t)
	s := g.Summary()
	for _, frag := range []string{"7 ops", "8 dependencies", "5 comp", "2 extio"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Summary missing %q: %s", frag, s)
		}
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New("rand")
	for i := 0; i < n; i++ {
		_ = g.AddComp("op" + strconv.Itoa(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(4) == 0 {
				_ = g.Connect("op"+strconv.Itoa(i), "op"+strconv.Itoa(j))
			}
		}
	}
	return g
}

func TestQuickTopoOrderIsValid(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != n {
			return false
		}
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		for _, e := range g.Edges() {
			if pos[e.Src()] >= pos[e.Dst()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEquivalent(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		c := g.Clone()
		if c.NumOps() != g.NumOps() || c.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if c.Edge(e.Key()) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%15) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		data, err := g.MarshalJSON()
		if err != nil {
			return false
		}
		var back Graph
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		if back.NumOps() != g.NumOps() || back.NumEdges() != g.NumEdges() {
			return false
		}
		o1, _ := g.TopoOrder()
		o2, _ := back.TopoOrder()
		return reflect.DeepEqual(o1, o2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIDs checks that op IDs follow insertion order and edge IDs follow
// Edges order, also after a mutation moves later edges' IDs.
func TestIDs(t *testing.T) {
	g := New("ids")
	for _, n := range []string{"A", "B", "C", "D"} {
		if err := g.AddComp(n); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		for i, n := range g.OpNames() {
			if id := g.OpID(n); id != int32(i) {
				t.Errorf("OpID(%s) = %d, want %d", n, id, i)
			}
		}
		for i, e := range g.Edges() {
			if id := g.EdgeID(e.Key()); id != int32(i) {
				t.Errorf("EdgeID(%s) = %d, want %d", e.Key(), id, i)
			}
		}
		if g.OpID("Z") != -1 || g.EdgeID(EdgeKey{Src: "D", Dst: "A"}) != -1 {
			t.Error("unknown names must have ID -1")
		}
	}
	for _, e := range [][2]string{{"B", "C"}, {"C", "D"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	check()
	// An edge out of A comes first in Edges order: the others move up.
	if err := g.Connect("A", "D"); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestEdgeIDConcurrentReaders reads edge IDs from several goroutines right
// after a mutation, when the first reads rebuild the cached table (run
// with -race).
func TestEdgeIDConcurrentReaders(t *testing.T) {
	g := New("concurrent")
	for i := 0; i < 50; i++ {
		if err := g.AddComp(fmt.Sprintf("o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 49; i > 0; i-- {
		if err := g.Connect(fmt.Sprintf("o%d", i-1), fmt.Sprintf("o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range edges {
				if id := g.EdgeID(e.Key()); id != int32(i) {
					t.Errorf("EdgeID(%s) = %d, want %d", e.Key(), id, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildIDsAllocs pins building the ID form at five allocations or
// fewer (the form, its int32 and arc arenas, the delayed flags and Kahn's
// scratch), whatever the graph's size.
func TestBuildIDsAllocs(t *testing.T) {
	for _, n := range []int{2, 40, 400} {
		g := randomDAG(rand.New(rand.NewSource(int64(n))), n)
		if allocs := testing.AllocsPerRun(5, func() { g.buildIDs() }); allocs > 5 {
			t.Errorf("%d ops, %d edges: building the ID form made %.0f allocations, want at most 5", n, g.NumEdges(), allocs)
		}
	}
}
