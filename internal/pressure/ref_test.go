package pressure

// The name-keyed longest-path pass the table was computed with before it
// read the graph's ID form, kept as the oracle TestComputeMatchesReference
// compares Compute against bit for bit.

import (
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// refLongestPaths returns R and each op's tail, by name, with each
// duration averaged by name at every use.
func refLongestPaths(g *graph.Graph, sp *spec.Spec) (float64, map[string]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	head := make(map[string]float64, len(order))
	tail := make(map[string]float64, len(order))
	for _, n := range order {
		h := 0.0
		for _, p := range g.Preds(n) {
			k := graph.EdgeKey{Src: p, Dst: n}
			if g.Edge(k).Delayed() {
				continue
			}
			if v := head[p] + sp.AvgExec(p) + sp.AvgComm(k); v > h {
				h = v
			}
		}
		head[n] = h
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		t := 0.0
		for _, s := range g.Succs(n) {
			k := graph.EdgeKey{Src: n, Dst: s}
			if g.Edge(k).Delayed() {
				continue
			}
			if v := tail[s] + sp.AvgExec(s) + sp.AvgComm(k); v > t {
				t = v
			}
		}
		tail[n] = t
	}
	r := 0.0
	for _, n := range order {
		if total := head[n] + sp.AvgExec(n) + tail[n]; total > r {
			r = total
		}
	}
	return r, tail, nil
}

// TestComputeMatchesReference requires Compute's R and tails to equal the
// name-keyed pass's bit for bit on every workload generator's graph (mems
// and restricted extios included), random bus and mesh problems and the
// paper's two examples.
func TestComputeMatchesReference(t *testing.T) {
	type problem struct {
		name string
		g    *graph.Graph
		sp   *spec.Spec
	}
	probs := []problem{
		{"paper-bus", paperex.BusInstance().Graph, paperex.BusInstance().Spec},
		{"paper-triangle", paperex.TriangleInstance().Graph, paperex.TriangleInstance().Spec},
	}
	gens := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return workload.ForkJoin(4, 3) },
		func() (*graph.Graph, error) { return workload.Pipeline(6) },
		func() (*graph.Graph, error) { return workload.FFT(8) },
		func() (*graph.Graph, error) { return workload.GaussianElimination(5) },
		func() (*graph.Graph, error) { return workload.Diamond(4) },
		func() (*graph.Graph, error) { return workload.ControlLoop(3, 2) },
	}
	a, err := workload.FullMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, gen := range gens {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := workload.Costs(rand.New(rand.NewSource(int64(i))), g, a, workload.CostParams{MeanExec: 3, Spread: 0.5, CCR: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		// Forbidden placements leave Inf cells out of the averages.
		if err := workload.RestrictExtIOs(sp, g, a, 2); err != nil {
			t.Fatal(err)
		}
		probs = append(probs, problem{g.Name(), g, sp})
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in, err := workload.RandomInstance(r, 10+r.Intn(60), 3+r.Intn(4), seed%2 == 0, 0.5+r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, problem{"random", in.Graph, in.Spec})
	}
	for _, p := range probs {
		tab, err := compute(p.g, p.sp)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		r, tail, err := refLongestPaths(p.g, p.sp)
		if err != nil {
			t.Fatalf("%s: reference: %v", p.name, err)
		}
		if math.Float64bits(tab.R) != math.Float64bits(r) {
			t.Errorf("%s: R = %v, reference %v", p.name, tab.R, r)
		}
		for o, op := range p.g.OpNames() {
			if got, want := tab.E(int32(o)), tail[op]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: E(%s) = %v, reference %v", p.name, op, got, want)
			}
		}
	}
}
