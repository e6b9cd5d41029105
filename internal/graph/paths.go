package graph

import "fmt"

// CostFunc supplies per-operation and per-dependency weights for path
// computations. Implementations typically come from a distribution-
// constraints table (averaged over processors and links for the static
// pre-pass of the schedule-pressure computation).
type CostFunc interface {
	// OpCost returns the weight of executing op.
	OpCost(op string) float64
	// EdgeCost returns the weight of transferring the dependency e.
	EdgeCost(e EdgeKey) float64
}

// ConstCost is a CostFunc assigning fixed weights to every operation and
// dependency. Useful for tests and pure-structure analyses.
type ConstCost struct {
	Op   float64
	Edge float64
}

// OpCost implements CostFunc.
func (c ConstCost) OpCost(string) float64 { return c.Op }

// EdgeCost implements CostFunc.
func (c ConstCost) EdgeCost(EdgeKey) float64 { return c.Edge }

// PathInfo holds the longest-path ("critical path") analysis of a graph under
// a given cost function, considering non-delayed edges only.
type PathInfo struct {
	// R is the total critical-path length of the graph.
	R float64
	// Head maps each operation to the length of the longest path ending
	// just before the operation starts (sum of op and edge weights of the
	// heaviest chain of strict predecessors).
	Head map[string]float64
	// Tail maps each operation to the length of the longest path starting
	// just after the operation ends (the paper's E(o) measured from the end
	// of the critical path).
	Tail map[string]float64
}

// LongestPaths computes the critical path R and, for every operation, the
// heaviest head (before start) and tail (after end) path lengths under cost
// c. Delayed edges are ignored, matching their iteration-crossing semantics.
func LongestPaths(g *Graph, c CostFunc) (*PathInfo, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("longest paths: %w", err)
	}
	info := &PathInfo{
		Head: make(map[string]float64, len(order)),
		Tail: make(map[string]float64, len(order)),
	}
	for _, n := range order {
		head := 0.0
		for _, e := range g.in[n] {
			if e.delayed {
				continue
			}
			p := e.key.Src
			v := info.Head[p] + c.OpCost(p) + c.EdgeCost(e.key)
			if v > head {
				head = v
			}
		}
		info.Head[n] = head
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		tail := 0.0
		for _, e := range g.out[n] {
			if e.delayed {
				continue
			}
			s := e.key.Dst
			v := info.Tail[s] + c.OpCost(s) + c.EdgeCost(e.key)
			if v > tail {
				tail = v
			}
		}
		info.Tail[n] = tail
	}
	for _, n := range order {
		total := info.Head[n] + c.OpCost(n) + info.Tail[n]
		if total > info.R {
			info.R = total
		}
	}
	return info, nil
}

// CriticalOps returns, in topological order, the operations lying on a
// critical path (head + cost + tail == R up to eps).
func (p *PathInfo) CriticalOps(g *Graph, c CostFunc, eps float64) []string {
	order, err := g.TopoOrder()
	if err != nil {
		return nil
	}
	var out []string
	for _, n := range order {
		if p.Head[n]+c.OpCost(n)+p.Tail[n] >= p.R-eps {
			out = append(out, n)
		}
	}
	return out
}
