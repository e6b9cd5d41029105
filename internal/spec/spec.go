// Package spec implements the AAA distribution constraints: the worst-case
// execution time of every (operation, processor) pair and the worst-case
// transfer time of every (data-dependency, link) pair, both in abstract time
// units (Section 5.4 of the paper).
//
// The value Inf means "this operation cannot execute on this processor"
// (typically an extio whose sensor/actuator is wired to specific processors).
package spec

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
)

// Inf marks an impossible placement in the execution-time table.
var Inf = math.Inf(1)

// Spec holds the distribution constraints for one (algorithm, architecture)
// pair. Create one with New and fill it with SetExec / SetComm.
type Spec struct {
	exec map[string]map[string]float64        // op -> proc -> duration
	comm map[graph.EdgeKey]map[string]float64 // edge -> link -> duration
	// commRow is the longest comm row so far. A new row is made with room
	// for that many links: on a point-to-point architecture every
	// dependency is costed on every link.
	commRow int
}

// New returns an empty constraints table.
func New() *Spec {
	return &Spec{
		exec: make(map[string]map[string]float64),
		comm: make(map[graph.EdgeKey]map[string]float64),
	}
}

// SetExec records the execution duration of op on proc. Use Inf to forbid
// the placement. Durations must not be negative or NaN.
func (s *Spec) SetExec(op, proc string, d float64) error {
	if math.IsNaN(d) || d < 0 {
		return fmt.Errorf("spec: exec(%s, %s) = %v: duration must be >= 0", op, proc, d)
	}
	row, ok := s.exec[op]
	if !ok {
		row = make(map[string]float64)
		s.exec[op] = row
	}
	row[proc] = d
	return nil
}

// SetComm records the transfer duration of edge e over link. Communication
// durations must be finite and non-negative (a link either carries the
// dependency or is simply never on its route).
func (s *Spec) SetComm(e graph.EdgeKey, link string, d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("spec: comm(%s, %s) = %v: duration must be finite and >= 0", e, link, d)
	}
	row, ok := s.comm[e]
	if !ok {
		row = make(map[string]float64, s.commRow)
		s.comm[e] = row
	}
	row[link] = d
	s.commRow = max(s.commRow, len(row))
	return nil
}

// Exec returns the execution duration of op on proc; absent entries are Inf
// (placement forbidden), mirroring the paper's convention.
func (s *Spec) Exec(op, proc string) float64 {
	if row, ok := s.exec[op]; ok {
		if d, ok := row[proc]; ok {
			return d
		}
	}
	return Inf
}

// Comm returns the transfer duration of edge e over link, or an error if the
// pair was never specified (unlike Exec there is no meaningful default).
func (s *Spec) Comm(e graph.EdgeKey, link string) (float64, error) {
	if row, ok := s.comm[e]; ok {
		if d, ok := row[link]; ok {
			return d, nil
		}
	}
	return 0, fmt.Errorf("spec: no communication duration for %s over link %q", e, link)
}

// CommRow returns the transfer durations of edge e by link name, or nil if
// none was specified. The map belongs to the spec: callers must not modify
// it. It serves callers that look up one edge over many links, hashing the
// edge key once.
func (s *Spec) CommRow(e graph.EdgeKey) map[string]float64 { return s.comm[e] }

// RouteComm returns the total transfer duration of edge e over the route r
// (the sum of per-hop durations, since each hop is a store-and-forward
// transfer executed by the communication units along the path).
func (s *Spec) RouteComm(e graph.EdgeKey, r arch.Route) (float64, error) {
	total := 0.0
	for _, h := range r {
		d, err := s.Comm(e, h.Link)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// AllowedProcs returns, sorted by name, the processors on which op may
// execute (finite duration).
func (s *Spec) AllowedProcs(op string) []string {
	var out []string
	for p, d := range s.exec[op] {
		if !math.IsInf(d, 1) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// NumAllowed returns the number of processors on which op may execute,
// len(AllowedProcs(op)) without building the list.
func (s *Spec) NumAllowed(op string) int {
	n := 0
	for _, d := range s.exec[op] {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
}

// CanRun reports whether op may execute on proc.
func (s *Spec) CanRun(op, proc string) bool { return !math.IsInf(s.Exec(op, proc), 1) }

// AvgExec returns the mean execution duration of op over its allowed
// processors, used by the static phase of the schedule-pressure computation
// on heterogeneous architectures. It returns Inf if no processor can run op.
func (s *Spec) AvgExec(op string) float64 {
	sum, n := 0.0, 0
	for _, d := range s.exec[op] {
		if !math.IsInf(d, 1) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return Inf
	}
	return sum / float64(n)
}

// AvgComm returns the mean transfer duration of edge e over the links it was
// specified for, or 0 if none were specified (a purely local dependency).
func (s *Spec) AvgComm(e graph.EdgeKey) float64 {
	row := s.comm[e]
	if len(row) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range row {
		sum += d
	}
	return sum / float64(len(row))
}

// Validate checks the constraints against an algorithm and an architecture:
// every operation must have at least one allowed processor, every referenced
// processor/link must exist, and every (edge, link) pair must be specified
// so any route is costable.
func (s *Spec) Validate(g *graph.Graph, a *arch.Architecture) error {
	var errs []string
	for op, row := range s.exec {
		if !g.HasOp(op) {
			errs = append(errs, fmt.Sprintf("exec table references unknown operation %q", op))
		}
		for p := range row {
			if !a.HasProcessor(p) {
				errs = append(errs, fmt.Sprintf("exec table references unknown processor %q (op %q)", p, op))
			}
		}
	}
	for _, op := range g.OpNames() {
		if len(s.AllowedProcs(op)) == 0 {
			errs = append(errs, fmt.Sprintf("operation %q has no processor able to execute it", op))
		}
	}
	for e, row := range s.comm {
		if g.Edge(e) == nil {
			errs = append(errs, fmt.Sprintf("comm table references unknown dependency %s", e))
		}
		for l := range row {
			if a.Link(l) == nil {
				errs = append(errs, fmt.Sprintf("comm table references unknown link %q (dependency %s)", l, e))
			}
		}
	}
	links := a.LinkNames()
	for _, e := range g.Edges() {
		row := s.comm[e.Key()]
		for _, l := range links {
			if _, ok := row[l]; !ok {
				errs = append(errs, fmt.Sprintf("dependency %s has no duration on link %q", e.Key(), l))
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs) // the tables are maps: fix the report's order
		return fmt.Errorf("spec: invalid constraints:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// SetCommUniform assigns the same duration to edge e on every link of the
// architecture, the common case in the paper's examples.
func (s *Spec) SetCommUniform(a *arch.Architecture, e graph.EdgeKey, d float64) error {
	if a.NumLinks() == 0 {
		return errors.New("spec: architecture has no links")
	}
	for _, l := range a.LinkNames() {
		if err := s.SetComm(e, l, d); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the constraints.
func (s *Spec) Clone() *Spec {
	c := New()
	for op, row := range s.exec {
		nr := make(map[string]float64, len(row))
		for p, d := range row {
			nr[p] = d
		}
		c.exec[op] = nr
	}
	for e, row := range s.comm {
		nr := make(map[string]float64, len(row))
		for l, d := range row {
			nr[l] = d
		}
		c.comm[e] = nr
	}
	return c
}

// AvgCost adapts the spec to graph.CostFunc using averaged durations, the
// weights used to compute R and E(o) before scheduling starts.
type AvgCost struct {
	S *Spec
}

// OpCost implements graph.CostFunc.
func (c AvgCost) OpCost(op string) float64 { return c.S.AvgExec(op) }

// EdgeCost implements graph.CostFunc.
func (c AvgCost) EdgeCost(e graph.EdgeKey) float64 { return c.S.AvgComm(e) }

var _ graph.CostFunc = AvgCost{}
