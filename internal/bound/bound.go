// Package bound computes simple lower bounds on the makespan of any
// schedule of a problem, used to report the optimality gap of the greedy
// heuristics (scheduling is NP-complete — Section 4.4 — so heuristics are
// evaluated against bounds, not optima).
package bound

import (
	"fmt"
	"math"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// Bounds holds makespan lower bounds for one problem.
type Bounds struct {
	// CriticalPath is the best-case execution of the heaviest dependency
	// chain: every operation on its fastest processor, no communication
	// (colocated consumers).
	CriticalPath float64
	// Work is the total best-case computation divided by the number of
	// processors (perfect load balance, no communication).
	Work float64
}

// Best returns the tighter (larger) of the bounds.
func (b Bounds) Best() float64 { return math.Max(b.CriticalPath, b.Work) }

// Compute derives the lower bounds for scheduling g on a under sp. The
// bounds apply to every valid schedule, including the fault-tolerant ones
// (replication only adds work).
func Compute(g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (Bounds, error) {
	x := g.IDs()
	if x.Cycle != nil {
		return Bounds{}, fmt.Errorf("bound: %w", x.Cycle)
	}
	v := sp.View(g, a)
	var b Bounds
	longest := make([]float64, g.NumOps())
	totalWork := 0.0
	for _, o := range x.Topo {
		d := math.Inf(1)
		for p := range int32(a.NumProcessors()) {
			d = min(d, v.Exec(o, p))
		}
		if math.IsInf(d, 1) {
			return Bounds{}, fmt.Errorf("bound: operation %q has no allowed processor", g.OpNames()[o])
		}
		totalWork += d
		head := 0.0
		for _, pe := range x.Preds(o) {
			head = max(head, longest[pe.Op])
		}
		longest[o] = head + d
		b.CriticalPath = max(b.CriticalPath, longest[o])
	}
	if n := a.NumProcessors(); n > 0 {
		b.Work = totalWork / float64(n)
	}
	return b, nil
}
