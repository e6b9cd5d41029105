package graph

import "fmt"

// IDs is the read-only ID form of a graph: its structure over op IDs
// (OpID, insertion order) and edge IDs (EdgeID, Edges order), the one
// numbering every analysis and every compiled form of a problem indexes
// its tables by. Graph.IDs builds it once after the graph's last mutation;
// it must not be modified.
type IDs struct {
	// Src, Dst and Delayed describe edge e: the op IDs of its endpoints and
	// whether it is delayed.
	Src, Dst []int32
	Delayed  []bool

	// Topo is the topological order of TopoOrder, nil when Cycle is set.
	Topo []int32
	// Cycle is TopoOrder's error when the non-delayed edges form a cycle.
	Cycle error

	// Outputs are the operations a complete iteration must produce, in
	// insertion order: the output extios, or the sinks when there are none.
	Outputs []int32

	// The strict predecessors of op o are preds[predStart[o]:predStart[o+1]],
	// its strict successors succs[succStart[o]:succStart[o+1]], both in
	// insertion order. Op o's out-edges have IDs outStart[o] to
	// outStart[o+1]-1.
	predStart, succStart, outStart []int32
	preds, succs                   []Arc
}

// Arc is one non-delayed edge seen from one of its ends: the op at the
// other end and the edge's ID.
type Arc struct {
	Op, Edge int32
}

// Preds returns op's strict predecessors: the ops that must complete before
// op can start within one iteration, with the connecting edges.
func (x *IDs) Preds(op int32) []Arc { return x.preds[x.predStart[op]:x.predStart[op+1]] }

// Succs returns op's strict successors with the connecting edges.
func (x *IDs) Succs(op int32) []Arc { return x.succs[x.succStart[op]:x.succStart[op+1]] }

// IDs returns the graph's ID form, building it after a mutation.
func (g *Graph) IDs() *IDs {
	if x := g.ids.Load(); x != nil {
		return x
	}
	x := g.buildIDs()
	g.ids.Store(x)
	return x
}

// buildIDs builds the ID form in a fixed number of allocations.
func (g *Graph) buildIDs() *IDs {
	nO, nE := len(g.order), len(g.edges)
	nStrict, nSinks, nExt := 0, 0, 0
	for o, es := range g.out {
		for _, e := range es {
			if !e.delayed {
				nStrict++
			}
		}
		if len(es) == 0 {
			nSinks++
			if g.ops[g.order[o]].kind == KindExtIO {
				nExt++
			}
		}
	}
	nOuts := nExt
	if nExt == 0 {
		nOuts = nSinks
	}

	ints := make([]int32, 2*nE+3*(nO+1)+nO+nOuts)
	take := func(n int) []int32 {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	arcs := make([]Arc, 2*nStrict)
	x := &IDs{
		Src: take(nE), Dst: take(nE), Delayed: make([]bool, nE),
		predStart: take(nO + 1), succStart: take(nO + 1), outStart: take(nO + 1),
		Topo: take(nO)[:0], Outputs: take(nOuts)[:0],
		preds: arcs[:0:nStrict], succs: arcs[nStrict:nStrict],
	}
	for o, es := range g.out {
		first := x.outStart[o]
		x.outStart[o+1] = first + int32(len(es))
		for i, e := range es {
			id := first + int32(i)
			x.Src[id], x.Dst[id], x.Delayed[id] = e.src, e.dst, e.delayed
			if !e.delayed {
				x.succs = append(x.succs, Arc{Op: e.dst, Edge: id})
			}
		}
		x.succStart[o+1] = int32(len(x.succs))
		if len(es) == 0 && (nExt == 0 || g.ops[g.order[o]].kind == KindExtIO) {
			x.Outputs = append(x.Outputs, int32(o))
		}
	}
	for o, es := range g.in {
		for _, e := range es {
			if !e.delayed {
				x.preds = append(x.preds, Arc{Op: e.src, Edge: x.outStart[e.src] + e.pos})
			}
		}
		x.predStart[o+1] = int32(len(x.preds))
	}

	// Kahn's algorithm, the ready ops in a min-heap of IDs.
	tmp := make([]int32, 2*nO)
	indeg, ready := tmp[:nO], tmp[nO:nO]
	for o := range indeg {
		if indeg[o] = x.predStart[o+1] - x.predStart[o]; indeg[o] == 0 {
			ready = append(ready, int32(o))
		}
	}
	for len(ready) > 0 {
		o := ready[0]
		ready = popMin(ready)
		x.Topo = append(x.Topo, o)
		for _, s := range x.Succs(o) {
			if indeg[s.Op]--; indeg[s.Op] == 0 {
				ready = pushMin(ready, s.Op)
			}
		}
	}
	if len(x.Topo) != nO {
		x.Topo = nil
		x.Cycle = fmt.Errorf("graph %q: cycle among non-delayed dependencies", g.name)
	}
	return x
}

// pushMin and popMin keep h a binary min-heap.
func pushMin(h []int32, v int32) []int32 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMin(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
