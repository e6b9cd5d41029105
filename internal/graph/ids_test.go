package graph_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/workload"
)

// TestIDsMatchReference compares the ID form with the name-keyed
// reference (CheckIDs) on every workload generator's graphs and the
// paper's algorithm.
func TestIDsMatchReference(t *testing.T) {
	graphs := []*graph.Graph{paperex.Algorithm()}
	add := func(g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		add(workload.LayeredDAG(r, workload.GraphParams{Ops: 5 + r.Intn(80), Width: 1 + r.Intn(8), EdgeProb: r.Float64(), WithIO: seed%2 == 0}))
		in, err := workload.RandomInstance(r, 10+r.Intn(60), 4, seed%2 == 0, 1.0)
		add(in.Graph, err)
	}
	for _, n := range []int{2, 3, 6} {
		add(workload.ForkJoin(n, n))
		add(workload.Pipeline(n))
		add(workload.Diamond(n))
		add(workload.ControlLoop(n, n))
		add(workload.GaussianElimination(n + 1))
	}
	for _, n := range []int{2, 8, 16} {
		add(workload.FFT(n))
	}
	for _, g := range graphs {
		if err := graph.CheckIDs(g); err != nil {
			t.Errorf("%s: %v", g.Summary(), err)
		}
		// A mutation rebuilds the form: a back edge closes a cycle unless it
		// runs into a mem.
		c := g.Clone()
		names := c.OpNames()
		if err := c.AddComp("tail"); err != nil {
			t.Fatal(err)
		}
		_ = c.Connect(names[len(names)-1], "tail")
		_ = c.Connect("tail", names[0])
		if err := graph.CheckIDs(c); err != nil {
			t.Errorf("%s with a back edge: %v", g.Summary(), err)
		}
	}
}
