package spec

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
)

func edge(src, dst string) graph.EdgeKey { return graph.EdgeKey{Src: src, Dst: dst} }

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("g")
	for _, n := range []string{"A", "B"} {
		if err := g.AddComp(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	return g
}

func smallArch(t *testing.T) *arch.Architecture {
	t.Helper()
	a := arch.New("a")
	_ = a.AddProcessor("P1")
	_ = a.AddProcessor("P2")
	if err := a.AddLink("L", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSetExecAndLookup(t *testing.T) {
	s := New()
	if err := s.SetExec("A", "P1", 2.5); err != nil {
		t.Fatal(err)
	}
	if got := s.Exec("A", "P1"); got != 2.5 {
		t.Errorf("Exec = %v", got)
	}
	if got := s.Exec("A", "P2"); !math.IsInf(got, 1) {
		t.Errorf("missing entry should be Inf, got %v", got)
	}
	if got := s.Exec("Z", "P1"); !math.IsInf(got, 1) {
		t.Errorf("missing op should be Inf, got %v", got)
	}
	if err := s.SetExec("A", "P2", Inf); err != nil {
		t.Fatalf("explicit Inf must be allowed: %v", err)
	}
	if s.CanRun("A", "P2") {
		t.Error("CanRun should be false for Inf")
	}
	if !s.CanRun("A", "P1") {
		t.Error("CanRun should be true for finite duration")
	}
}

func TestSetExecRejectsBadValues(t *testing.T) {
	s := New()
	if err := s.SetExec("A", "P1", -1); err == nil {
		t.Error("negative duration must be rejected")
	}
	if err := s.SetExec("A", "P1", math.NaN()); err == nil {
		t.Error("NaN duration must be rejected")
	}
}

func TestSetCommAndLookup(t *testing.T) {
	s := New()
	e := edge("A", "B")
	if err := s.SetComm(e, "L", 0.5); err != nil {
		t.Fatal(err)
	}
	d, err := s.Comm(e, "L")
	if err != nil || d != 0.5 {
		t.Errorf("Comm = %v, %v", d, err)
	}
	if _, err := s.Comm(e, "L2"); err == nil {
		t.Error("missing link must error")
	}
	if _, err := s.Comm(edge("X", "Y"), "L"); err == nil {
		t.Error("missing edge must error")
	}
	if err := s.SetComm(e, "L", Inf); err == nil {
		t.Error("infinite comm must be rejected")
	}
	if err := s.SetComm(e, "L", -0.5); err == nil {
		t.Error("negative comm must be rejected")
	}
}

func TestRouteComm(t *testing.T) {
	s := New()
	e := edge("A", "B")
	_ = s.SetComm(e, "L1", 1.0)
	_ = s.SetComm(e, "L2", 0.5)
	r := arch.Route{{Link: "L1", To: "P2"}, {Link: "L2", To: "P3"}}
	d, err := s.RouteComm(e, r)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.5 {
		t.Errorf("RouteComm = %v, want 1.5", d)
	}
	d, err = s.RouteComm(e, arch.Route{})
	if err != nil || d != 0 {
		t.Errorf("empty route = %v, %v", d, err)
	}
	if _, err := s.RouteComm(e, arch.Route{{Link: "LX", To: "P9"}}); err == nil {
		t.Error("unknown link on route must error")
	}
}

func TestAllowedProcs(t *testing.T) {
	s := New()
	_ = s.SetExec("A", "P2", 1)
	_ = s.SetExec("A", "P1", 2)
	_ = s.SetExec("A", "P3", Inf)
	got := s.AllowedProcs("A")
	if len(got) != 2 || got[0] != "P1" || got[1] != "P2" {
		t.Errorf("AllowedProcs = %v", got)
	}
	if procs := s.AllowedProcs("missing"); len(procs) != 0 {
		t.Errorf("AllowedProcs(missing) = %v", procs)
	}
}

func TestAverages(t *testing.T) {
	s := New()
	_ = s.SetExec("A", "P1", 2)
	_ = s.SetExec("A", "P2", 4)
	_ = s.SetExec("A", "P3", Inf)
	if got := s.AvgExec("A"); got != 3 {
		t.Errorf("AvgExec = %v, want 3 (Inf excluded)", got)
	}
	if got := s.AvgExec("missing"); !math.IsInf(got, 1) {
		t.Errorf("AvgExec(missing) = %v, want Inf", got)
	}
	e := edge("A", "B")
	_ = s.SetComm(e, "L1", 1)
	_ = s.SetComm(e, "L2", 2)
	if got := s.AvgComm(e); got != 1.5 {
		t.Errorf("AvgComm = %v", got)
	}
	if got := s.AvgComm(edge("X", "Y")); got != 0 {
		t.Errorf("AvgComm(missing) = %v, want 0", got)
	}
}

func validSpec(t *testing.T, g *graph.Graph, a *arch.Architecture) *Spec {
	t.Helper()
	s := New()
	for _, op := range g.OpNames() {
		for _, p := range a.ProcessorNames() {
			if err := s.SetExec(op, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range g.Edges() {
		if err := s.SetCommUniform(a, e.Key(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestValidateOK(t *testing.T) {
	g, a := smallGraph(t), smallArch(t)
	s := validSpec(t, g, a)
	if err := s.Validate(g, a); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	g, a := smallGraph(t), smallArch(t)

	s := validSpec(t, g, a)
	_ = s.SetExec("ghost", "P1", 1)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Errorf("want unknown-operation error, got %v", err)
	}

	s = validSpec(t, g, a)
	_ = s.SetExec("A", "PX", 1)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "unknown processor") {
		t.Errorf("want unknown-processor error, got %v", err)
	}

	s = New()
	_ = s.SetExec("A", "P1", 1)
	// B has no allowed processor.
	_ = s.SetCommUniform(a, edge("A", "B"), 0.5)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "no processor able") {
		t.Errorf("want no-processor error, got %v", err)
	}

	s = validSpec(t, g, a)
	_ = s.SetComm(edge("X", "Y"), "L", 1)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "unknown dependency") {
		t.Errorf("want unknown-dependency error, got %v", err)
	}

	s = validSpec(t, g, a)
	_ = s.SetComm(edge("A", "B"), "LX", 1)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "unknown link") {
		t.Errorf("want unknown-link error, got %v", err)
	}

	s = New()
	_ = s.SetExec("A", "P1", 1)
	_ = s.SetExec("B", "P1", 1)
	if err := s.Validate(g, a); err == nil || !strings.Contains(err.Error(), "no duration on link") {
		t.Errorf("want missing-comm error, got %v", err)
	}
}

func TestSetCommUniform(t *testing.T) {
	a := smallArch(t)
	s := New()
	e := edge("A", "B")
	if err := s.SetCommUniform(a, e, 0.7); err != nil {
		t.Fatal(err)
	}
	d, err := s.Comm(e, "L")
	if err != nil || d != 0.7 {
		t.Errorf("Comm = %v, %v", d, err)
	}
	if err := s.SetCommUniform(arch.New("empty"), e, 1); err == nil {
		t.Error("no-links architecture must error")
	}
}

// TestSetCommUniformReassignAllocs pins re-assigning existing edges on a
// 28-link full mesh at zero allocations: SetCommUniform walks the
// architecture's links without copying their names.
func TestSetCommUniformReassignAllocs(t *testing.T) {
	a := arch.New("mesh8")
	for i := 0; i < 8; i++ {
		if err := a.AddProcessor("P" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if err := a.AddLink("L"+strconv.Itoa(j)+strconv.Itoa(i), "P"+strconv.Itoa(j), "P"+strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := New()
	edges := []graph.EdgeKey{edge("A", "B"), edge("B", "C")}
	for _, e := range edges {
		if err := s.SetCommUniform(a, e, 1); err != nil {
			t.Fatal(err)
		}
	}
	d := 1.0
	allocs := testing.AllocsPerRun(20, func() {
		d += 0.5
		for _, e := range edges {
			if err := s.SetCommUniform(a, e, d); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("re-assigning %d edges on %d links made %.0f allocations, want 0", len(edges), a.NumLinks(), allocs)
	}
	if got, err := s.Comm(edges[1], a.LinkName(27)); err != nil || got != d {
		t.Errorf("Comm(%s, %s) = %v, %v; want %v", edges[1], a.LinkName(27), got, err, d)
	}
}

func TestClone(t *testing.T) {
	s := New()
	_ = s.SetExec("A", "P1", 1)
	_ = s.SetComm(edge("A", "B"), "L", 2)
	c := s.Clone()
	_ = c.SetExec("A", "P1", 9)
	_ = c.SetComm(edge("A", "B"), "L", 9)
	if s.Exec("A", "P1") != 1 {
		t.Error("clone exec mutation leaked")
	}
	if d, _ := s.Comm(edge("A", "B"), "L"); d != 2 {
		t.Error("clone comm mutation leaked")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := New()
	_ = s.SetExec("A", "P1", 1.5)
	_ = s.SetExec("A", "P2", Inf)
	_ = s.SetExec("B", "P1", 3)
	_ = s.SetComm(edge("A", "B"), "L", 0.5)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if back.Exec("A", "P1") != 1.5 {
		t.Errorf("exec A/P1 = %v", back.Exec("A", "P1"))
	}
	if !math.IsInf(back.Exec("A", "P2"), 1) {
		t.Errorf("exec A/P2 = %v, want Inf", back.Exec("A", "P2"))
	}
	d, err := back.Comm(edge("A", "B"), "L")
	if err != nil || d != 0.5 {
		t.Errorf("comm = %v, %v", d, err)
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	var s Spec
	if err := s.UnmarshalJSON([]byte(`nope`)); err == nil {
		t.Error("expected syntax error")
	}
	if err := s.UnmarshalJSON([]byte(`{"exec":[{"op":"A","proc":"P1","duration":-3}]}`)); err == nil {
		t.Error("expected negative-duration error")
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"inf", Inf}, {"Inf", Inf}, {"INFINITY", Inf}, {"∞", Inf},
		{"1.5", 1.5}, {"0", 0}, {"1e999", Inf},
	}
	for _, c := range cases {
		got, err := parseDuration(c.in)
		if err != nil {
			t.Errorf("parseDuration(%q): %v", c.in, err)
			continue
		}
		if math.IsInf(c.want, 1) != math.IsInf(got, 1) || (!math.IsInf(c.want, 1) && got != c.want) {
			t.Errorf("parseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := parseDuration("abc"); err == nil {
		t.Error("expected parse error")
	}
}

func TestTables(t *testing.T) {
	s := New()
	_ = s.SetExec("A", "P1", 1)
	_ = s.SetExec("A", "P2", Inf)
	_ = s.SetComm(edge("A", "B"), "L", 1.25)
	et := s.ExecTable([]string{"A"}, []string{"P1", "P2"})
	if !strings.Contains(et, "inf") || !strings.Contains(et, "P1\t1") {
		t.Errorf("ExecTable:\n%s", et)
	}
	ct := s.CommTable([]graph.EdgeKey{edge("A", "B"), edge("X", "Y")}, []string{"L"})
	if !strings.Contains(ct, "1.25") || !strings.Contains(ct, "-") {
		t.Errorf("CommTable:\n%s", ct)
	}
}

func TestQuickJSONRoundTripExec(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || d < 0 || math.IsInf(d, 0) {
			return true // rejected inputs are out of scope
		}
		s := New()
		if err := s.SetExec("A", "P1", d); err != nil {
			return false
		}
		data, err := s.MarshalJSON()
		if err != nil {
			return false
		}
		var back Spec
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		// %g may round very long fractions; accept tiny relative error.
		got := back.Exec("A", "P1")
		if d == 0 {
			return got == 0
		}
		return math.Abs(got-d)/math.Max(d, 1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
