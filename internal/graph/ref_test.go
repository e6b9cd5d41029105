package graph

// The name-keyed views of a graph's structure that the analyses read
// before the ID form, kept as the oracle CheckIDs compares IDs against.
// They use only the name-keyed API (Preds, Succs, Edge, Edges, Sinks).

import (
	"fmt"
	"slices"
)

// refStrictPreds returns the predecessors of op through non-delayed edges.
func refStrictPreds(g *Graph, op string) []string {
	var out []string
	for _, p := range g.Preds(op) {
		if !g.Edge(EdgeKey{Src: p, Dst: op}).Delayed() {
			out = append(out, p)
		}
	}
	return out
}

// refStrictSuccs returns the successors of op through non-delayed edges.
func refStrictSuccs(g *Graph, op string) []string {
	var out []string
	for _, s := range g.Succs(op) {
		if !g.Edge(EdgeKey{Src: op, Dst: s}).Delayed() {
			out = append(out, s)
		}
	}
	return out
}

// refTopoOrder is Kahn's algorithm over names, the ready ops kept sorted
// by insertion index.
func refTopoOrder(g *Graph) ([]string, error) {
	names := g.OpNames()
	indeg := map[string]int{}
	for _, n := range names {
		indeg[n] = len(refStrictPreds(g, n))
	}
	var ready []int
	for i, n := range names {
		if indeg[n] == 0 {
			ready = append(ready, i)
		}
	}
	var out []string
	for len(ready) > 0 {
		n := names[ready[0]]
		ready = ready[1:]
		out = append(out, n)
		for _, s := range refStrictSuccs(g, n) {
			if indeg[s]--; indeg[s] == 0 {
				i := int(g.OpID(s))
				j, _ := slices.BinarySearch(ready, i)
				ready = slices.Insert(ready, j, i)
			}
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("graph %q: cycle among non-delayed dependencies", g.Name())
	}
	return out, nil
}

// refOutputs returns the output extios, or the sinks when there are none.
func refOutputs(g *Graph) []string {
	if outs := g.Outputs(); len(outs) > 0 {
		return outs
	}
	return g.Sinks()
}

// refEdgeID returns the index of key in Edges, or -1.
func refEdgeID(g *Graph, key EdgeKey) int32 {
	return int32(slices.IndexFunc(g.Edges(), func(e *Edge) bool { return e.Key() == key }))
}

// CheckIDs compares g's ID form, EdgeID, TopoOrder and Validate's cycle
// check with the name-keyed reference and returns the first difference.
func CheckIDs(g *Graph) error {
	x := g.IDs()
	names := g.OpNames()
	edges := g.Edges()
	if len(x.Src) != len(edges) || len(x.Dst) != len(edges) || len(x.Delayed) != len(edges) {
		return fmt.Errorf("%d edges, ID form has %d/%d/%d", len(edges), len(x.Src), len(x.Dst), len(x.Delayed))
	}
	for e, edge := range edges {
		k := edge.Key()
		if names[x.Src[e]] != k.Src || names[x.Dst[e]] != k.Dst || x.Delayed[e] != edge.Delayed() {
			return fmt.Errorf("edge %d: ID form %s->%s delayed %v, want %s delayed %v",
				e, names[x.Src[e]], names[x.Dst[e]], x.Delayed[e], k, edge.Delayed())
		}
		if got, want := g.EdgeID(k), refEdgeID(g, k); got != want {
			return fmt.Errorf("EdgeID(%s) = %d, want %d", k, got, want)
		}
	}
	if id := g.EdgeID(EdgeKey{Src: "\x00", Dst: "\x00"}); id != -1 {
		return fmt.Errorf("EdgeID of an unknown edge = %d", id)
	}
	arcs := func(side string, got []Arc, want []string, key func(string) EdgeKey) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d arcs, want %v", side, len(got), want)
		}
		for i, a := range got {
			if names[a.Op] != want[i] || a.Edge != refEdgeID(g, key(want[i])) {
				return fmt.Errorf("%s: arc %d = %v, want %s", side, i, a, want[i])
			}
		}
		return nil
	}
	for o, n := range names {
		if err := arcs("Preds("+n+")", x.Preds(int32(o)), refStrictPreds(g, n), func(p string) EdgeKey { return EdgeKey{Src: p, Dst: n} }); err != nil {
			return err
		}
		if err := arcs("Succs("+n+")", x.Succs(int32(o)), refStrictSuccs(g, n), func(s string) EdgeKey { return EdgeKey{Src: n, Dst: s} }); err != nil {
			return err
		}
	}
	want, refErr := refTopoOrder(g)
	got, err := g.TopoOrder()
	if fmt.Sprint(err) != fmt.Sprint(refErr) || fmt.Sprint(x.Cycle) != fmt.Sprint(refErr) {
		return fmt.Errorf("cycle: TopoOrder %v, ID form %v, want %v", err, x.Cycle, refErr)
	}
	if !slices.Equal(got, want) || len(x.Topo) != len(want) {
		return fmt.Errorf("TopoOrder = %v (ID form %v), want %v", got, x.Topo, want)
	}
	for i, o := range x.Topo {
		if names[o] != want[i] {
			return fmt.Errorf("Topo[%d] = %s, want %s", i, names[o], want[i])
		}
	}
	if refErr != nil && len(names) > 0 && fmt.Sprint(g.Validate()) != refErr.Error() {
		return fmt.Errorf("Validate = %v, want %v", g.Validate(), refErr)
	}
	outs := make([]string, len(x.Outputs))
	for i, o := range x.Outputs {
		outs[i] = names[o]
	}
	if wantOuts := refOutputs(g); !slices.Equal(outs, wantOuts) {
		return fmt.Errorf("Outputs = %v, want %v", outs, wantOuts)
	}
	return nil
}
