// Package graph implements the AAA algorithm model: a data-flow graph of
// operations connected by data-dependencies.
//
// Following the paper (Section 4.2), operations come in three kinds:
//
//   - comp: pure computation, no internal state, no side effect ("safe");
//     it may be replicated at will.
//   - mem: register-like memory holding a value between two iterations
//     ("memory-safe"); its output precedes its input, so edges *into* a mem
//     are delayed by one iteration and do not constrain intra-iteration
//     ordering.
//   - extio: external input/output bound to a sensor or actuator ("unsafe");
//     an input extio has no predecessors, an output extio has no successors.
//
// The graph is executed repeatedly, once per iteration of the reactive loop.
// Within one iteration it must be acyclic once delayed edges are removed.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Kind identifies the class of an operation.
type Kind int

// Operation kinds, in the paper's terminology.
const (
	KindComp Kind = iota + 1
	KindMem
	KindExtIO
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindComp:
		return "comp"
	case KindMem:
		return "mem"
	case KindExtIO:
		return "extio"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is a vertex of the algorithm graph.
type Op struct {
	name string
	kind Kind
	id   int32 // index in insertion order
}

// Name returns the unique name of the operation.
func (o *Op) Name() string { return o.name }

// Kind returns the operation's kind.
func (o *Op) Kind() Kind { return o.kind }

// Safe reports whether the operation may be freely replicated (Section 5.4):
// comps are safe, mems are memory-safe (replicable with identical initial
// values), extios are unsafe (replication restricted by the hardware they
// drive, expressed through the distribution constraints).
func (o *Op) Safe() bool { return o.kind != KindExtIO }

// EdgeKey identifies a data-dependency by the names of its endpoints.
type EdgeKey struct {
	Src string
	Dst string
}

// String renders the dependency as "src->dst".
func (e EdgeKey) String() string { return e.Src + "->" + e.Dst }

// Edge is a data-dependency of the algorithm graph.
type Edge struct {
	key      EdgeKey
	delayed  bool
	src, dst int32 // the endpoints' op IDs
	pos      int32 // index among the source's out-edges
}

// Key returns the (src, dst) pair identifying the edge.
func (e *Edge) Key() EdgeKey { return e.key }

// Src returns the producing operation's name.
func (e *Edge) Src() string { return e.key.Src }

// Dst returns the consuming operation's name.
func (e *Edge) Dst() string { return e.key.Dst }

// Delayed reports whether the dependency crosses an iteration boundary.
// Edges into a mem are delayed: they carry the state update for the next
// iteration and do not constrain start dates within the current one.
func (e *Edge) Delayed() bool { return e.delayed }

// Graph is a mutable algorithm graph. The zero value is not usable; create
// one with New. All mutating methods return an error instead of panicking so
// graphs can be built from untrusted inputs (files, generators).
type Graph struct {
	name  string
	ops   map[string]*Op
	order []string // insertion order, for deterministic iteration
	edges map[EdgeKey]*Edge
	out   [][]*Edge // by op ID, the insertion-ordered edges out of the op
	in    [][]*Edge // by op ID, the insertion-ordered edges into the op

	// ids caches the graph's ID form (see IDs). Every mutation resets it;
	// readers build it on first use, so concurrent readers stay race-free.
	ids *atomic.Pointer[IDs]
}

// New returns an empty algorithm graph with the given name.
func New(name string) *Graph {
	return &Graph{
		name:  name,
		ops:   make(map[string]*Op),
		edges: make(map[EdgeKey]*Edge),
		ids:   new(atomic.Pointer[IDs]),
	}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// AddComp adds a pure computation operation.
func (g *Graph) AddComp(name string) error { return g.add(name, KindComp) }

// AddMem adds a memory (register) operation.
func (g *Graph) AddMem(name string) error { return g.add(name, KindMem) }

// AddExtIO adds an external input/output operation. Whether it is a sensor
// (input) or an actuator (output) is determined by its position in the graph:
// sources are inputs, sinks are outputs (validated by Validate).
func (g *Graph) AddExtIO(name string) error { return g.add(name, KindExtIO) }

func (g *Graph) add(name string, k Kind) error {
	if name == "" {
		return errors.New("graph: operation name must not be empty")
	}
	if _, ok := g.ops[name]; ok {
		return fmt.Errorf("graph: duplicate operation %q", name)
	}
	g.ops[name] = &Op{name: name, kind: k, id: int32(len(g.order))}
	g.order = append(g.order, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.mutated()
	return nil
}

// Connect adds the data-dependency src->dst. If dst is a mem, the edge is
// automatically delayed (the mem consumes the value at the next iteration).
func (g *Graph) Connect(src, dst string) error {
	so, ok := g.ops[src]
	if !ok {
		return fmt.Errorf("graph: connect %s->%s: unknown operation %q", src, dst, src)
	}
	do, ok := g.ops[dst]
	if !ok {
		return fmt.Errorf("graph: connect %s->%s: unknown operation %q", src, dst, dst)
	}
	if src == dst {
		return fmt.Errorf("graph: self-dependency on %q", src)
	}
	key := EdgeKey{Src: src, Dst: dst}
	if _, ok := g.edges[key]; ok {
		return fmt.Errorf("graph: duplicate dependency %s", key)
	}
	e := &Edge{key: key, delayed: do.kind == KindMem, src: so.id, dst: do.id, pos: int32(len(g.out[so.id]))}
	g.edges[key] = e
	g.out[so.id] = append(g.out[so.id], e)
	g.in[do.id] = append(g.in[do.id], e)
	g.mutated()
	return nil
}

// mutated drops the cached ID form.
func (g *Graph) mutated() { g.ids.Store(nil) }

// NumOps returns the number of operations.
func (g *Graph) NumOps() int { return len(g.ops) }

// NumEdges returns the number of data-dependencies.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Op returns the named operation, or nil if absent.
func (g *Graph) Op(name string) *Op { return g.ops[name] }

// HasOp reports whether the named operation exists.
func (g *Graph) HasOp(name string) bool { _, ok := g.ops[name]; return ok }

// Ops returns all operations in insertion order.
func (g *Graph) Ops() []*Op {
	out := make([]*Op, 0, len(g.order))
	for _, n := range g.order {
		out = append(out, g.ops[n])
	}
	return out
}

// OpNames returns all operation names in insertion order.
func (g *Graph) OpNames() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// OpID returns the ID of the named operation, its index in insertion
// order (the order of OpNames), or -1 if absent. Op IDs, edge IDs and the
// architecture's processor and link IDs are the one dense numbering every
// compiled form of a problem indexes its tables by.
func (g *Graph) OpID(name string) int32 {
	if o := g.ops[name]; o != nil {
		return o.id
	}
	return -1
}

// EdgeID returns the ID of the edge with the given key, its index in Edges
// order, or -1 if absent.
func (g *Graph) EdgeID(key EdgeKey) int32 {
	e := g.edges[key]
	if e == nil {
		return -1
	}
	return g.IDs().outStart[e.src] + e.pos
}

// Edge returns the edge with the given key, or nil if absent.
func (g *Graph) Edge(key EdgeKey) *Edge { return g.edges[key] }

// Edges returns all data-dependencies, ordered by source insertion order then
// destination insertion order (deterministic).
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, es := range g.out {
		out = append(out, es...)
	}
	return out
}

// edgesOf returns the named op's edges from one of g.out and g.in, or nil.
func (g *Graph) edgesOf(side [][]*Edge, op string) []*Edge {
	if o := g.ops[op]; o != nil {
		return side[o.id]
	}
	return nil
}

// Succs returns the names of the successors of op, in insertion order.
func (g *Graph) Succs(op string) []string {
	es := g.edgesOf(g.out, op)
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.key.Dst
	}
	return out
}

// Preds returns the names of the predecessors of op, in insertion order.
func (g *Graph) Preds(op string) []string {
	es := g.edgesOf(g.in, op)
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.key.Src
	}
	return out
}

// Sources returns, in insertion order, the operations with no predecessor at
// all (the external input interface plus parentless computations).
func (g *Graph) Sources() []string {
	var out []string
	for i, n := range g.order {
		if len(g.in[i]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Sinks returns, in insertion order, the operations with no successor.
func (g *Graph) Sinks() []string {
	var out []string
	for i, n := range g.order {
		if len(g.out[i]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Inputs returns the extio operations acting as sensors (no predecessors).
func (g *Graph) Inputs() []string {
	var out []string
	for _, n := range g.Sources() {
		if g.ops[n].kind == KindExtIO {
			out = append(out, n)
		}
	}
	return out
}

// Outputs returns the extio operations acting as actuators (no successors).
func (g *Graph) Outputs() []string {
	var out []string
	for _, n := range g.Sinks() {
		if g.ops[n].kind == KindExtIO {
			out = append(out, n)
		}
	}
	return out
}

// TopoOrder returns a deterministic topological order of the operations with
// respect to non-delayed edges (Kahn's algorithm; ties resolved by insertion
// order). It returns an error if the non-delayed subgraph has a cycle.
func (g *Graph) TopoOrder() ([]string, error) {
	x := g.IDs()
	if x.Cycle != nil {
		return nil, x.Cycle
	}
	out := make([]string, len(x.Topo))
	for i, o := range x.Topo {
		out[i] = g.order[o]
	}
	return out, nil
}

// Validate checks the structural well-formedness of the graph:
// it must be non-empty, acyclic w.r.t. non-delayed edges, extio operations
// must be pure sources or pure sinks, and mem operations must have at least
// one consumer (a write-only register is a specification error).
func (g *Graph) Validate() error {
	if len(g.ops) == 0 {
		return fmt.Errorf("graph %q: no operations", g.name)
	}
	if err := g.IDs().Cycle; err != nil {
		return err
	}
	for i, n := range g.order {
		switch g.ops[n].kind {
		case KindExtIO:
			in, out := len(g.in[i]), len(g.out[i])
			if in > 0 && out > 0 {
				return fmt.Errorf("graph %q: extio %q has both predecessors and successors; it must be a sensor (source) or an actuator (sink)", g.name, n)
			}
			if in == 0 && out == 0 {
				return fmt.Errorf("graph %q: extio %q is disconnected", g.name, n)
			}
		case KindMem:
			if len(g.out[i]) == 0 {
				return fmt.Errorf("graph %q: mem %q has no consumer", g.name, n)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for _, n := range g.order {
		// add cannot fail on names already validated in g.
		_ = c.add(n, g.ops[n].kind)
	}
	for _, e := range g.Edges() {
		_ = c.Connect(e.Src(), e.Dst())
	}
	return c
}
