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
//
// Each table is a dense row-major matrix over the spec's own numbering of
// its names, in order of first use: exec rows are operations and columns
// processors, comm rows dependencies and columns links (see table). A View
// reads both through a problem's IDs.
type Spec struct {
	exec table[string]        // op -> proc -> duration
	comm table[graph.EdgeKey] // edge -> link -> duration
}

// New returns an empty constraints table.
func New() *Spec { return &Spec{} }

// SetExec records the execution duration of op on proc. Use Inf to forbid
// the placement. Durations must not be negative or NaN.
func (s *Spec) SetExec(op, proc string, d float64) error {
	if math.IsNaN(d) || d < 0 {
		return fmt.Errorf("spec: exec(%s, %s) = %v: duration must be >= 0", op, proc, d)
	}
	s.exec.set(op, proc, d)
	return nil
}

// SetComm records the transfer duration of edge e over link. Communication
// durations must be finite and non-negative (a link either carries the
// dependency or is simply never on its route).
func (s *Spec) SetComm(e graph.EdgeKey, link string, d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("spec: comm(%s, %s) = %v: duration must be finite and >= 0", e, link, d)
	}
	s.comm.set(e, link, d)
	return nil
}

// Exec returns the execution duration of op on proc; absent entries are Inf
// (placement forbidden), mirroring the paper's convention.
func (s *Spec) Exec(op, proc string) float64 {
	if d, ok := s.exec.lookup(op, proc); ok {
		return d
	}
	return Inf
}

// Comm returns the transfer duration of edge e over link, or an error if the
// pair was never specified (unlike Exec there is no meaningful default).
func (s *Spec) Comm(e graph.EdgeKey, link string) (float64, error) {
	if d, ok := s.comm.lookup(e, link); ok {
		return d, nil
	}
	return 0, fmt.Errorf("spec: no communication duration for %s over link %q", e, link)
}

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
	r := s.exec.rows.index(op)
	if r < 0 {
		return nil
	}
	var out []string
	s.exec.each(r, func(c int32, d float64) {
		if !math.IsInf(d, 1) {
			out = append(out, s.exec.cols.names[c])
		}
	})
	sort.Strings(out)
	return out
}

// NumAllowed returns the number of processors on which op may execute,
// len(AllowedProcs(op)) without building the list.
func (s *Spec) NumAllowed(op string) int {
	return s.numAllowed(s.exec.rows.index(op))
}

// numAllowed counts the finite cells of exec row r, 0 for r < 0.
func (s *Spec) numAllowed(r int32) int {
	n := 0
	if r >= 0 {
		s.exec.each(r, func(_ int32, d float64) {
			if !math.IsInf(d, 1) {
				n++
			}
		})
	}
	return n
}

// CanRun reports whether op may execute on proc.
func (s *Spec) CanRun(op, proc string) bool { return !math.IsInf(s.Exec(op, proc), 1) }

// AvgExec returns the mean execution duration of op over its allowed
// processors, used by the static phase of the schedule-pressure computation
// on heterogeneous architectures. It returns Inf if no processor can run op.
// The durations are summed in the order their processors were first given
// to the spec, so repeated calls return the same bits.
func (s *Spec) AvgExec(op string) float64 { return s.avgExec(s.exec.rows.index(op)) }

// avgExec averages exec row r, Inf for r < 0.
func (s *Spec) avgExec(r int32) float64 {
	sum, n := 0.0, 0
	if r >= 0 {
		s.exec.each(r, func(_ int32, d float64) {
			if !math.IsInf(d, 1) {
				sum += d
				n++
			}
		})
	}
	if n == 0 {
		return Inf
	}
	return sum / float64(n)
}

// AvgComm returns the mean transfer duration of edge e over the links it was
// specified for, or 0 if none were specified (a purely local dependency).
// The durations are summed in the order their links were first given to
// the spec.
func (s *Spec) AvgComm(e graph.EdgeKey) float64 { return s.avgComm(s.comm.rows.index(e)) }

// avgComm averages comm row r, 0 for r < 0.
func (s *Spec) avgComm(r int32) float64 {
	sum, n := 0.0, 0
	if r >= 0 {
		s.comm.each(r, func(_ int32, d float64) {
			sum += d
			n++
		})
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Validate checks the constraints against an algorithm and an architecture:
// every operation must have at least one allowed processor, every referenced
// processor/link must exist, and every (edge, link) pair must be specified
// so any route is costable.
func (s *Spec) Validate(g *graph.Graph, a *arch.Architecture) error {
	var errs []string
	v := s.View(g, a)
	known := make([]bool, max(len(s.exec.cols.names), len(s.comm.cols.names)))
	for c, p := range s.exec.cols.names {
		known[c] = a.ProcID(p) >= 0
	}
	for r, op := range s.exec.rows.names {
		if g.OpID(op) < 0 {
			errs = append(errs, fmt.Sprintf("exec table references unknown operation %q", op))
		}
		s.exec.each(int32(r), func(c int32, _ float64) {
			if !known[c] {
				errs = append(errs, fmt.Sprintf("exec table references unknown processor %q (op %q)", s.exec.cols.names[c], op))
			}
		})
	}
	for id, op := range g.OpNames() {
		if s.numAllowed(v.opRow[id]) == 0 {
			errs = append(errs, fmt.Sprintf("operation %q has no processor able to execute it", op))
		}
	}
	for c, l := range s.comm.cols.names {
		known[c] = a.LinkID(l) >= 0
	}
	for r, e := range s.comm.rows.names {
		if g.EdgeID(e) < 0 {
			errs = append(errs, fmt.Sprintf("comm table references unknown dependency %s", e))
		}
		s.comm.each(int32(r), func(c int32, _ float64) {
			if !known[c] {
				errs = append(errs, fmt.Sprintf("comm table references unknown link %q (dependency %s)", s.comm.cols.names[c], e))
			}
		})
	}
	links := a.LinkNames()
	for id, e := range g.Edges() {
		for l, name := range links {
			if _, ok := v.Comm(int32(id), int32(l)); !ok {
				errs = append(errs, fmt.Sprintf("dependency %s has no duration on link %q", e.Key(), name))
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs) // fix the report's order
		return fmt.Errorf("spec: invalid constraints:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// View reads a spec's tables by the IDs of one problem: the graph's
// operation and edge IDs (graph.OpID, graph.EdgeID) and the
// architecture's processor and link IDs (arch.ProcID, arch.LinkID). Each
// ID is mapped to the spec's own row or column once, when the view is
// made, so a lookup hashes no name. The spec, graph and architecture must
// not change while the view is in use.
type View struct {
	s                                *Spec
	opRow, procCol, edgeRow, linkCol []int32 // -1 where the spec has no entry
}

// View maps the problem (g, a) onto the spec's tables.
func (s *Spec) View(g *graph.Graph, a *arch.Architecture) *View {
	nO, nP, nE, nL := g.NumOps(), a.NumProcessors(), g.NumEdges(), a.NumLinks()
	ids := make([]int32, nO+nP+nE+nL)
	for i := range ids {
		ids[i] = -1
	}
	v := &View{
		s:       s,
		opRow:   ids[:nO:nO],
		procCol: ids[nO : nO+nP : nO+nP],
		edgeRow: ids[nO+nP : nO+nP+nE : nO+nP+nE],
		linkCol: ids[nO+nP+nE:],
	}
	for r, op := range s.exec.rows.names {
		if id := g.OpID(op); id >= 0 {
			v.opRow[id] = int32(r)
		}
	}
	for c, p := range s.exec.cols.names {
		if id := a.ProcID(p); id >= 0 {
			v.procCol[id] = int32(c)
		}
	}
	for r, e := range s.comm.rows.names {
		if id := g.EdgeID(e); id >= 0 {
			v.edgeRow[id] = int32(r)
		}
	}
	for c, l := range s.comm.cols.names {
		if id := a.LinkID(l); id >= 0 {
			v.linkCol[id] = int32(c)
		}
	}
	return v
}

// Exec returns the execution duration of operation op on processor proc,
// Inf where the spec has none, as Spec.Exec does.
func (v *View) Exec(op, proc int32) float64 {
	if r, c := v.opRow[op], v.procCol[proc]; r >= 0 && c >= 0 {
		if d, ok := v.s.exec.get(r, c); ok {
			return d
		}
	}
	return Inf
}

// AvgExec returns the mean execution duration of operation op, as
// Spec.AvgExec does.
func (v *View) AvgExec(op int32) float64 { return v.s.avgExec(v.opRow[op]) }

// AvgComm returns the mean transfer duration of edge, as Spec.AvgComm does.
func (v *View) AvgComm(edge int32) float64 { return v.s.avgComm(v.edgeRow[edge]) }

// Comm returns the transfer duration of edge over link, and whether the
// spec has one.
func (v *View) Comm(edge, link int32) (float64, bool) {
	if r, c := v.edgeRow[edge], v.linkCol[link]; r >= 0 && c >= 0 {
		return v.s.comm.get(r, c)
	}
	return 0, false
}

// SetCommUniform assigns the same duration to edge e on every link of the
// architecture, the common case in the paper's examples.
func (s *Spec) SetCommUniform(a *arch.Architecture, e graph.EdgeKey, d float64) error {
	if a.NumLinks() == 0 {
		return errors.New("spec: architecture has no links")
	}
	for id := range int32(a.NumLinks()) {
		if err := s.SetComm(e, a.LinkName(id), d); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the constraints.
func (s *Spec) Clone() *Spec {
	return &Spec{exec: s.exec.clone(), comm: s.comm.clone()}
}
