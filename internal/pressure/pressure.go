// Package pressure implements the static half of the SynDEx "schedule
// pressure" cost function (Section 6.2 of the paper):
//
//	σ(n)(o, p) = S(n)(o, p) + Δ(o, p) + E(o) − R
//
// where S is the earliest start of operation o on processor p given the
// partial schedule at step n (computed dynamically by the schedulers), Δ the
// execution duration from the constraints table, E(o) the longest remaining
// path after o measured from the end of the critical path, and R the
// critical path of the whole algorithm. σ measures by how much scheduling o
// on p lengthens the critical path of the implementation, so the heuristic
// schedules the most urgent operation (max σ) on its best processor (min σ).
//
// R and E(o) are computed once before scheduling, by a longest-path pass
// over the graph's ID form (graph.IDs) that ignores delayed edges, with
// durations averaged over the allowed processors and links (the
// architecture is heterogeneous, so no single exact duration exists before
// placement). The table is indexed by op ID, so σ is branchless array
// arithmetic.
package pressure

import (
	"fmt"
	"math"

	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// Table holds the static quantities of the pressure function for one
// (algorithm, constraints) pair.
type Table struct {
	// R is the averaged critical-path length of the algorithm.
	R    float64
	tail []float64 // by op ID
}

// Compute builds the pressure table for g under the constraints v reads.
// It rejects non-finite path lengths: an operation with no allowed
// processor has the ∞ average, which the longest paths would silently
// carry into R and the tails — and Sigma would then evaluate Inf − Inf =
// NaN, mis-ranking every candidate instead of failing.
func Compute(g *graph.Graph, v *spec.View) (Table, error) {
	x := g.IDs()
	if x.Cycle != nil {
		return Table{}, fmt.Errorf("pressure: longest paths: %w", x.Cycle)
	}
	n := g.NumOps()
	// cost holds each op's average execution, then each edge's average
	// transfer, and head and tail the longest paths ending just before
	// each op starts and starting just after it ends.
	buf := make([]float64, 3*n+len(x.Src))
	head, tail, cost := buf[:n], buf[n:2*n], buf[2*n:]
	for o := range n {
		cost[o] = v.AvgExec(int32(o))
	}
	for e := range x.Src {
		cost[n+e] = v.AvgComm(int32(e))
	}
	for _, o := range x.Topo {
		h := 0.0
		for _, p := range x.Preds(o) {
			if w := head[p.Op] + cost[p.Op] + cost[n+int(p.Edge)]; w > h {
				h = w
			}
		}
		head[o] = h
	}
	for i := len(x.Topo) - 1; i >= 0; i-- {
		o := x.Topo[i]
		t := 0.0
		for _, s := range x.Succs(o) {
			if w := tail[s.Op] + cost[s.Op] + cost[n+int(s.Edge)]; w > t {
				t = w
			}
		}
		tail[o] = t
	}
	r := 0.0
	for _, o := range x.Topo {
		if total := head[o] + cost[o] + tail[o]; total > r {
			r = total
		}
	}

	bad, names := -1, []string(nil)
	for o, e := range tail {
		if !math.IsInf(e, 1) && !math.IsNaN(e) {
			continue
		}
		if names == nil {
			names = g.OpNames()
		}
		if bad < 0 || names[o] < names[bad] {
			bad = o
		}
	}
	if bad >= 0 {
		return Table{}, fmt.Errorf("pressure: remaining path after %s is not finite: an operation on it has no allowed processor", names[bad])
	}
	if math.IsInf(r, 1) || math.IsNaN(r) {
		return Table{}, fmt.Errorf("pressure: critical path is not finite: an operation has no allowed processor")
	}
	return Table{R: r, tail: tail}, nil
}

// E returns the longest remaining path after the operation with ID op ends
// (the paper's E(o), "maximal end date measured from the end of the
// critical path").
func (t *Table) E(op int32) float64 { return t.tail[op] }

// Sigma evaluates the schedule pressure of placing the operation with ID op
// on a processor where it would start at date s and run for d time units.
func (t *Table) Sigma(op int32, s, d float64) float64 {
	return s + d + t.tail[op] - t.R
}
