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
// R and E(o) are computed once before scheduling, with durations averaged
// over the allowed processors and links (the architecture is heterogeneous,
// so no single exact duration exists before placement).
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
	tail map[string]float64
}

// Compute builds the pressure table for g under sp. It rejects non-finite
// path lengths: an operation with no allowed processor makes AvgExec return
// the ∞ sentinel, which LongestPaths would silently propagate into R and the
// tails — and Sigma would then evaluate Inf − Inf = NaN, mis-ranking every
// candidate instead of failing.
func Compute(g *graph.Graph, sp *spec.Spec) (*Table, error) {
	info, err := graph.LongestPaths(g, spec.AvgCost{S: sp})
	if err != nil {
		return nil, fmt.Errorf("pressure: %w", err)
	}
	bad := ""
	for op, e := range info.Tail { //ftlint:order-insensitive keeps the least name, whatever the order
		if (math.IsInf(e, 1) || math.IsNaN(e)) && (bad == "" || op < bad) {
			bad = op
		}
	}
	if bad != "" {
		return nil, fmt.Errorf("pressure: remaining path after %s is not finite: an operation on it has no allowed processor", bad)
	}
	if math.IsInf(info.R, 1) || math.IsNaN(info.R) {
		return nil, fmt.Errorf("pressure: critical path is not finite: an operation has no allowed processor")
	}
	return &Table{R: info.R, tail: info.Tail}, nil
}

// E returns the longest remaining path after op ends (the paper's E(o),
// "maximal end date measured from the end of the critical path").
func (t *Table) E(op string) float64 { return t.tail[op] }

// Sigma evaluates the schedule pressure of placing op on a processor where
// it would start at date s and run for d time units.
func (t *Table) Sigma(op string, s, d float64) float64 {
	return s + d + t.E(op) - t.R
}

// Dense is the compiled form of a Table for a fixed operation interning: the
// tail term indexed by a caller-assigned dense operation ID instead of a
// name. Sigma on a Dense is branchless array arithmetic — no map hash, no
// existence check — and small enough to inline into the scheduler's scoring
// loop. Build one with Table.Dense.
type Dense struct {
	// R is the averaged critical-path length, identical to the Table's.
	R    float64
	tail []float64
}

// Dense compiles the table against ops, where the operation at index i gets
// dense ID i. Every op must be present in the table: a miss here would turn
// into a silent 0 tail and mis-rank candidates, so it is an error instead.
func (t *Table) Dense(ops []string) (Dense, error) {
	tail := make([]float64, len(ops))
	for i, op := range ops {
		e, ok := t.tail[op]
		if !ok {
			return Dense{}, fmt.Errorf("pressure: operation %q has no remaining-path entry", op)
		}
		tail[i] = e
	}
	return Dense{R: t.R, tail: tail}, nil
}

// Sigma evaluates the schedule pressure of placing the operation with dense
// ID op on a processor where it would start at date s and run for d time
// units. The float expression is identical, operation for operation, to the
// string-keyed Table.Sigma, so both produce bit-equal pressures.
func (d *Dense) Sigma(op int32, s, dur float64) float64 {
	return s + dur + d.tail[op] - d.R
}
