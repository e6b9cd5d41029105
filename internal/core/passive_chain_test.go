package core

import (
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/pressure"
	"ftsched/internal/spec"
)

// These tests are the successors of the passive-chain error-propagation
// regression tests: the pre-dense engine could first discover a missing
// communication cost or an unroutable backup sender deep inside
// ft1PassiveChain, and had to propagate the error instead of silently
// dropping the hop. The dense engine front-loads those lookups — compile
// builds total comm and route tables before the greedy loop starts — so the
// same defects must now fail compilation outright, before any slot exists.

// compileFixture builds the two-op graph A -> B.
func compileFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("pair")
	_ = g.AddComp("A")
	_ = g.AddComp("B")
	if err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompileRejectsMissingCommCost(t *testing.T) {
	a := arch.New("bus2")
	for _, p := range []string{"P1", "P2"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddBus("B1", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New() // no Comm(A->B, "B1") entry
	for _, op := range []string{"A", "B"} {
		for _, p := range []string{"P1", "P2"} {
			if err := sp.SetExec(op, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := compileFixture(t)
	if _, err := compile(g, a, sp); err == nil {
		t.Fatal("missing comm cost: want compile error, got nil")
	} else if !strings.Contains(err.Error(), "compile") {
		t.Errorf("error should identify the compile step, got: %v", err)
	}
}

func TestCompileRejectsUnroutableProcessor(t *testing.T) {
	// P3 is isolated: no link connects it, so the all-pairs route table
	// cannot be built. In the old engine this surfaced only when an FT1
	// backup replica landed on P3 and its passive chain failed to route.
	a := arch.New("split")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddLink("L12", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New()
	for _, op := range []string{"A", "B"} {
		for _, p := range []string{"P1", "P2", "P3"} {
			if err := sp.SetExec(op, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := compileFixture(t)
	if err := sp.SetComm(graph.EdgeKey{Src: "A", Dst: "B"}, "L12", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := compile(g, a, sp); err == nil {
		t.Fatal("unroutable processor: want compile error, got nil")
	} else if !strings.Contains(err.Error(), "compile") {
		t.Errorf("error should identify the compile step, got: %v", err)
	}
}

// TestCompileTablesMatchSpec spot-checks the dense tables against the
// string-keyed sources they were compiled from: exec and comm durations,
// route shapes, allowed processors in declaration order, and the pressure
// tail per op ID.
func TestCompileTablesMatchSpec(t *testing.T) {
	a := arch.New("chain3")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddLink("L12", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddLink("L23", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New()
	for i, op := range []string{"A", "B"} {
		for j, p := range []string{"P1", "P2", "P3"} {
			if err := sp.SetExec(op, p, float64(1+i+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := compileFixture(t)
	e := graph.EdgeKey{Src: "A", Dst: "B"}
	if err := sp.SetComm(e, "L12", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetComm(e, "L23", 0.25); err != nil {
		t.Fatal(err)
	}
	m, err := compile(g, a, sp)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pressure.Compute(g, sp.View(g, a))
	if err != nil {
		t.Fatal(err)
	}
	if m.nOps != 2 || m.nProcs != 3 || m.nLinks != 2 || m.nEdges != 1 {
		t.Fatalf("sizes = %d ops, %d procs, %d links, %d edges", m.nOps, m.nProcs, m.nLinks, m.nEdges)
	}
	for o := int32(0); o < m.nOps; o++ {
		for p := int32(0); p < m.nProcs; p++ {
			if got, want := m.exec[o*m.nProcs+p], sp.Exec(m.opNames[o], m.procNames[p]); got != want {
				t.Errorf("exec[%s on %s] = %v, want %v", m.opNames[o], m.procNames[p], got, want)
			}
		}
	}
	for l := int32(0); l < m.nLinks; l++ {
		want, err := sp.Comm(e, m.linkNames[l])
		if err != nil {
			t.Fatal(err)
		}
		if got := m.comm[0*m.nLinks+l]; got != want {
			t.Errorf("comm[%s] = %v, want %v", m.linkNames[l], got, want)
		}
	}
	// P1 -> P3 crosses both links; the dense route must mirror a.Route.
	route := m.routes[0*m.nProcs+2]
	if len(route) != 2 {
		t.Fatalf("route P1->P3 has %d hops, want 2", len(route))
	}
	if m.linkNames[route[0].link] != "L12" || m.procNames[route[0].to] != "P2" {
		t.Errorf("hop 0 = %s to %s", m.linkNames[route[0].link], m.procNames[route[0].to])
	}
	if m.linkNames[route[1].link] != "L23" || m.procNames[route[1].to] != "P3" {
		t.Errorf("hop 1 = %s to %s", m.linkNames[route[1].link], m.procNames[route[1].to])
	}
	for o := int32(0); o < m.nOps; o++ {
		if len(m.allowed[o]) != 3 {
			t.Errorf("allowed[%s] = %d procs, want 3", m.opNames[o], len(m.allowed[o]))
		}
		if got, want := m.sigma.Sigma(o, 0, 0), pt.Sigma(o, 0, 0); got != want {
			t.Errorf("sigma[%s] = %v, want %v", m.opNames[o], got, want)
		}
	}
}
