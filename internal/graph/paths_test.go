package graph_test

import (
	"errors"
	"math"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/pressure"
	"ftsched/internal/spec"
)

// longestPaths runs the longest-path pass over g's strict edges with every
// operation costing op and every edge costing edge.
func longestPaths(t *testing.T, g *graph.Graph, op, edge float64) (pressure.Table, error) {
	t.Helper()
	sp := spec.New()
	for _, n := range g.OpNames() {
		if err := sp.SetExec(n, "P", op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		if err := sp.SetComm(e.Key(), "L", edge); err != nil {
			t.Fatal(err)
		}
	}
	return pressure.Compute(g, sp.View(g, arch.New("none")))
}

func TestLongestPathsChain(t *testing.T) {
	g := graph.New("chain")
	_ = g.AddComp("a")
	_ = g.AddComp("b")
	_ = g.AddComp("c")
	_ = g.Connect("a", "b")
	_ = g.Connect("b", "c")
	tab, err := longestPaths(t, g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.R-(2+1+2+1+2)) > 1e-9 {
		t.Errorf("R = %v, want 8", tab.R)
	}
	for op, want := range map[string]float64{"a": 6, "b": 3, "c": 0} {
		if got := tab.E(g.OpID(op)); math.Abs(got-want) > 1e-9 {
			t.Errorf("tail[%s] = %v, want %v", op, got, want)
		}
	}
}

func TestLongestPathsCycleError(t *testing.T) {
	g := graph.New("cyc")
	_ = g.AddComp("a")
	_ = g.AddComp("b")
	_ = g.Connect("a", "b")
	_ = g.Connect("b", "a")
	cycle := g.IDs().Cycle
	if cycle == nil {
		t.Fatal("IDs().Cycle is nil for a cyclic graph")
	}
	if _, err := longestPaths(t, g, 1, 0); !errors.Is(err, cycle) {
		t.Fatalf("err = %v, want the graph's cycle error", err)
	}
}
