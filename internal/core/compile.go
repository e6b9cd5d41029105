package core

import (
	"fmt"
	"math"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/pressure"
	"ftsched/internal/spec"
)

// model is the dense compilation of one scheduling problem: every operation,
// processor, link, and data-dependency is interned into a contiguous integer
// ID, and every table the hot loop consults (execution durations, per-hop
// communication durations, routes, shared buses, allowed processors,
// pressure tails) is a flat array indexed by those IDs. The graph's
// structure (edge endpoints, strict predecessors and successors) is read
// from its ID form, graph.IDs.
//
// Compilation runs once per schedule, after validation; from then on the
// greedy loop performs no map lookup and no string hash. The ID spaces are
// the problem's own (graph.OpID, graph.EdgeID, arch.ProcID, arch.LinkID),
// through which graph.IDs and spec.View read the graph and the constraints:
//
//	op:   index into g.OpNames()          (declaration order)
//	proc: index into a.ProcessorNames()   (declaration order)
//	link: index into a.LinkNames()        (declaration order)
//	edge: index into g.Edges()            (source-then-destination order)
//
// Declaration order is load-bearing: tie-breaking in candidate evaluation
// and selection follows it, so the dense engine inherits the exact
// deterministic behavior of the name-keyed one. Names reappear only at the
// boundary, when the finished arena state is materialized into a
// *sched.Schedule.
//
// The tables are total by construction: spec.Validate guarantees a
// communication duration for every (edge, link) pair and arch.Validate
// guarantees a connected network, so route and comm lookups cannot fail
// after compile returns. compile still checks and reports any hole as a hard
// error — a missing entry silently read as zero would corrupt schedules, not
// crash them.
type model struct {
	g   *graph.Graph
	a   *arch.Architecture
	ids *graph.IDs

	opNames   []string
	procNames []string
	linkNames []string
	edgeKeys  []graph.EdgeKey

	nOps, nProcs, nLinks, nEdges int32

	// exec[op*nProcs+proc] is the WCET, +Inf where the placement is
	// forbidden (spec.Exec's convention).
	exec []float64
	// comm[edge*nLinks+link] is the per-hop transfer duration; total.
	comm []float64

	// routes[src*nProcs+dst] is the static route between two processors
	// (empty for src == dst). bus[src*nProcs+dst] is the earliest-declared
	// bus attaching both, or -1.
	routes [][]denseHop
	bus    []int32

	// allowed[op] lists the processors able to run op, declaration order.
	allowed [][]int32

	// sigma is the pressure table (branchless σ).
	sigma pressure.Table
}

// denseHop is one routed hop: traverse link to reach processor to.
type denseHop struct {
	link int32
	to   int32
}

// compile interns the problem into a model and computes its pressure table.
// g, a, and sp must already be validated (newBuilder does). Architecture
// route and bus tables are warmed through arch.Precompute, so the returned
// model is safe for concurrent read-only use by the evaluation worker pool.
func compile(g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*model, error) {
	v := sp.View(g, a)
	sigma, err := pressure.Compute(g, v)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a.Precompute()
	m := &model{
		g:         g,
		a:         a,
		ids:       g.IDs(),
		opNames:   g.OpNames(),
		procNames: a.ProcessorNames(),
		linkNames: a.LinkNames(),
		sigma:     sigma,
	}
	m.nOps = int32(len(m.opNames))
	m.nProcs = int32(len(m.procNames))
	m.nLinks = int32(len(m.linkNames))

	// Execution table and allowed processors, declaration order.
	m.exec = make([]float64, int(m.nOps)*int(m.nProcs))
	m.allowed = make([][]int32, m.nOps)
	allowedArena := make([]int32, 0, int(m.nOps)*int(m.nProcs))
	for o := int32(0); o < m.nOps; o++ {
		start := len(allowedArena)
		for p := int32(0); p < m.nProcs; p++ {
			d := v.Exec(o, p)
			m.exec[o*m.nProcs+p] = d
			if !math.IsInf(d, 1) {
				allowedArena = append(allowedArena, p)
			}
		}
		m.allowed[o] = allowedArena[start:len(allowedArena):len(allowedArena)]
	}

	// The edges, in ID order, and the total communication table.
	edges := g.Edges()
	m.nEdges = int32(len(edges))
	m.edgeKeys = make([]graph.EdgeKey, m.nEdges)
	m.comm = make([]float64, int(m.nEdges)*int(m.nLinks))
	for e, edge := range edges {
		key := edge.Key()
		m.edgeKeys[e] = key
		for l := int32(0); l < m.nLinks; l++ {
			d, ok := v.Comm(int32(e), l)
			if !ok {
				_, err := sp.Comm(key, m.linkNames[l])
				return nil, fmt.Errorf("core: compile: %w", err)
			}
			m.comm[int32(e)*m.nLinks+l] = d
		}
	}

	// All-pairs routes and shared buses. Both come from the architecture's
	// precomputed tables; a missing route means a disconnected network that
	// validation should have rejected, so it is a hard error here.
	m.routes = make([][]denseHop, int(m.nProcs)*int(m.nProcs))
	m.bus = make([]int32, int(m.nProcs)*int(m.nProcs))
	for s := int32(0); s < m.nProcs; s++ {
		for d := int32(0); d < m.nProcs; d++ {
			idx := s*m.nProcs + d
			m.bus[idx] = -1
			if b := a.BusBetween(m.procNames[s], m.procNames[d]); b != "" {
				m.bus[idx] = a.LinkID(b)
			}
			if s == d {
				continue
			}
			route, err := a.Route(m.procNames[s], m.procNames[d])
			if err != nil {
				return nil, fmt.Errorf("core: compile: %w", err)
			}
			hops := make([]denseHop, len(route))
			for i, h := range route {
				hops[i] = denseHop{link: a.LinkID(h.Link), to: a.ProcID(h.To)}
			}
			m.routes[idx] = hops
		}
	}
	return m, nil
}
