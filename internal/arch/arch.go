// Package arch implements the AAA architecture model: a network of
// processors connected by bidirectional communication links.
//
// Following the paper (Section 4.3), each processor holds one computation
// unit plus one communication unit per link it is attached to; the
// architecture is a non-oriented hypergraph whose hyper-edges are the links.
// Links are either point-to-point (exactly two processors) or multi-point
// buses (two or more processors, serialized by an arbiter, with hardware
// broadcast).
package arch

import (
	"errors"
	"fmt"
	"sort"
)

// LinkKind distinguishes point-to-point links from multi-point buses.
type LinkKind int

// Link kinds.
const (
	// PointToPoint connects exactly two processors; concurrent
	// communications on distinct point-to-point links proceed in parallel.
	PointToPoint LinkKind = iota + 1
	// Bus connects two or more processors; all communications on the bus
	// are serialized, and every attached processor observes all traffic
	// (hardware broadcast), which FT1 exploits for failure detection.
	Bus
)

// String returns a human-readable name for the kind.
func (k LinkKind) String() string {
	switch k {
	case PointToPoint:
		return "point-to-point"
	case Bus:
		return "bus"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Processor is a node of the architecture graph: one computation unit and
// the communication units implied by its link attachments.
type Processor struct {
	name string
	id   int32 // index in declaration order
}

// Name returns the processor's unique name.
func (p *Processor) Name() string { return p.name }

// Link is a hyper-edge of the architecture graph.
type Link struct {
	name      string
	kind      LinkKind
	endpoints []string // processor names, insertion order
	id        int32    // index in declaration order
}

// Name returns the link's unique name.
func (l *Link) Name() string { return l.name }

// Kind returns whether the link is point-to-point or a bus.
func (l *Link) Kind() LinkKind { return l.kind }

// Endpoints returns the processors attached to the link.
func (l *Link) Endpoints() []string {
	out := make([]string, len(l.endpoints))
	copy(out, l.endpoints)
	return out
}

// Connects reports whether the link attaches the named processor.
func (l *Link) Connects(proc string) bool {
	for _, e := range l.endpoints {
		if e == proc {
			return true
		}
	}
	return false
}

// Hop is one step of a route: traverse Link to reach processor To.
type Hop struct {
	Link string
	To   string
}

// Route is a static path between two processors, as a sequence of hops. An
// empty route means source and destination are the same processor.
type Route []Hop

// Architecture is a mutable architecture graph. Create one with New.
type Architecture struct {
	name      string
	procs     map[string]*Processor
	procOrder []string
	links     map[string]*Link
	linkOrder []string
	attach    map[string][]string // proc -> link names, insertion order

	routes map[[2]string]Route  // lazily computed static routing table
	buses  map[[2]string]string // lazily computed earliest shared bus per pair
}

// New returns an empty architecture with the given name.
func New(name string) *Architecture {
	return &Architecture{
		name:   name,
		procs:  make(map[string]*Processor),
		links:  make(map[string]*Link),
		attach: make(map[string][]string),
	}
}

// Name returns the architecture's name.
func (a *Architecture) Name() string { return a.name }

// AddProcessor adds a processor node.
func (a *Architecture) AddProcessor(name string) error {
	if name == "" {
		return errors.New("arch: processor name must not be empty")
	}
	if _, ok := a.procs[name]; ok {
		return fmt.Errorf("arch: duplicate processor %q", name)
	}
	a.procs[name] = &Processor{name: name, id: int32(len(a.procOrder))}
	a.procOrder = append(a.procOrder, name)
	a.routes = nil
	a.buses = nil
	return nil
}

// AddLink adds a point-to-point link between processors x and y.
func (a *Architecture) AddLink(name, x, y string) error {
	return a.addLink(name, PointToPoint, []string{x, y})
}

// AddBus adds a multi-point bus attaching the given processors.
func (a *Architecture) AddBus(name string, procs ...string) error {
	return a.addLink(name, Bus, procs)
}

func (a *Architecture) addLink(name string, kind LinkKind, eps []string) error {
	if name == "" {
		return errors.New("arch: link name must not be empty")
	}
	if _, ok := a.links[name]; ok {
		return fmt.Errorf("arch: duplicate link %q", name)
	}
	if kind == PointToPoint && len(eps) != 2 {
		return fmt.Errorf("arch: point-to-point link %q must have exactly 2 endpoints, got %d", name, len(eps))
	}
	if kind == Bus && len(eps) < 2 {
		return fmt.Errorf("arch: bus %q must attach at least 2 processors, got %d", name, len(eps))
	}
	seen := make(map[string]bool, len(eps))
	for _, p := range eps {
		if _, ok := a.procs[p]; !ok {
			return fmt.Errorf("arch: link %q references unknown processor %q", name, p)
		}
		if seen[p] {
			return fmt.Errorf("arch: link %q attaches processor %q twice", name, p)
		}
		seen[p] = true
	}
	cp := make([]string, len(eps))
	copy(cp, eps)
	a.links[name] = &Link{name: name, kind: kind, endpoints: cp, id: int32(len(a.linkOrder))}
	a.linkOrder = append(a.linkOrder, name)
	for _, p := range eps {
		a.attach[p] = append(a.attach[p], name)
	}
	a.routes = nil
	a.buses = nil
	return nil
}

// NumProcessors returns the number of processors.
func (a *Architecture) NumProcessors() int { return len(a.procs) }

// NumLinks returns the number of links.
func (a *Architecture) NumLinks() int { return len(a.links) }

// Processor returns the named processor, or nil.
func (a *Architecture) Processor(name string) *Processor { return a.procs[name] }

// HasProcessor reports whether the named processor exists.
func (a *Architecture) HasProcessor(name string) bool { _, ok := a.procs[name]; return ok }

// ProcID returns the ID of the named processor, its index in declaration
// order (the order of ProcessorNames), or -1 if absent.
func (a *Architecture) ProcID(name string) int32 {
	if p := a.procs[name]; p != nil {
		return p.id
	}
	return -1
}

// LinkID returns the ID of the named link, its index in declaration order
// (the order of LinkNames), or -1 if absent.
func (a *Architecture) LinkID(name string) int32 {
	if l := a.links[name]; l != nil {
		return l.id
	}
	return -1
}

// LinkName returns the name of the link with the given ID, the inverse of
// LinkID. It panics if id is not in [0, NumLinks()).
func (a *Architecture) LinkName(id int32) string { return a.linkOrder[id] }

// Processors returns all processors in insertion order.
func (a *Architecture) Processors() []*Processor {
	out := make([]*Processor, 0, len(a.procOrder))
	for _, n := range a.procOrder {
		out = append(out, a.procs[n])
	}
	return out
}

// ProcessorNames returns all processor names in insertion order.
func (a *Architecture) ProcessorNames() []string {
	out := make([]string, len(a.procOrder))
	copy(out, a.procOrder)
	return out
}

// Link returns the named link, or nil.
func (a *Architecture) Link(name string) *Link { return a.links[name] }

// Links returns all links in insertion order.
func (a *Architecture) Links() []*Link {
	out := make([]*Link, 0, len(a.linkOrder))
	for _, n := range a.linkOrder {
		out = append(out, a.links[n])
	}
	return out
}

// LinkNames returns all link names in insertion order.
func (a *Architecture) LinkNames() []string {
	out := make([]string, len(a.linkOrder))
	copy(out, a.linkOrder)
	return out
}

// LinksOf returns the names of the links attached to proc, in insertion
// order (one communication unit per entry, in the paper's model).
func (a *Architecture) LinksOf(proc string) []string {
	out := make([]string, len(a.attach[proc]))
	copy(out, a.attach[proc])
	return out
}

// SharedLink returns the name of a link directly connecting x and y
// (preferring the earliest declared), or "" if none exists.
func (a *Architecture) SharedLink(x, y string) string {
	for _, ln := range a.linkOrder {
		l := a.links[ln]
		if l.Connects(x) && l.Connects(y) {
			return ln
		}
	}
	return ""
}

// BusBetween returns the name of the earliest-declared bus attaching both x
// and y, or "" if no bus connects them. The pair table is computed on first
// use and cached; mutating the architecture invalidates it.
func (a *Architecture) BusBetween(x, y string) string {
	if a.buses == nil {
		a.buildBuses()
	}
	return a.buses[[2]string{x, y}]
}

// buildBuses fills the processor-pair -> earliest-declared-bus table.
func (a *Architecture) buildBuses() {
	a.buses = make(map[[2]string]string)
	for _, ln := range a.linkOrder {
		l := a.links[ln]
		if l.kind != Bus {
			continue
		}
		for i, p := range l.endpoints {
			if _, ok := a.buses[[2]string{p, p}]; !ok {
				a.buses[[2]string{p, p}] = ln
			}
			for _, q := range l.endpoints[i+1:] {
				if _, ok := a.buses[[2]string{p, q}]; !ok {
					a.buses[[2]string{p, q}] = ln
					a.buses[[2]string{q, p}] = ln
				}
			}
		}
	}
}

// Precompute eagerly builds the routing and shared-bus tables. Schedulers
// call it before evaluating candidates concurrently: afterwards Route and
// BusBetween are read-only lookups, safe for parallel use as long as the
// architecture is not mutated.
func (a *Architecture) Precompute() {
	if a.routes == nil {
		a.buildRoutes()
	}
	if a.buses == nil {
		a.buildBuses()
	}
}

// IsBusOnly reports whether every link is a bus.
func (a *Architecture) IsBusOnly() bool {
	for _, l := range a.links {
		if l.kind != Bus {
			return false
		}
	}
	return len(a.links) > 0
}

// IsPointToPointOnly reports whether every link is point-to-point.
func (a *Architecture) IsPointToPointOnly() bool {
	for _, l := range a.links {
		if l.kind != PointToPoint {
			return false
		}
	}
	return len(a.links) > 0
}

// Validate checks structural well-formedness: at least one processor, every
// processor attached to at least one link (unless the architecture has a
// single processor), and the whole graph connected.
func (a *Architecture) Validate() error {
	if len(a.procs) == 0 {
		return fmt.Errorf("arch %q: no processors", a.name)
	}
	if len(a.procs) == 1 {
		return nil
	}
	for _, p := range a.procOrder {
		if len(a.attach[p]) == 0 {
			return fmt.Errorf("arch %q: processor %q has no link", a.name, p)
		}
	}
	if !a.connected() {
		return fmt.Errorf("arch %q: network is not connected", a.name)
	}
	return nil
}

func (a *Architecture) connected() bool {
	if len(a.procOrder) == 0 {
		return false
	}
	seen := map[string]bool{a.procOrder[0]: true}
	queue := []string{a.procOrder[0]}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, ln := range a.attach[p] {
			for _, q := range a.links[ln].endpoints {
				if !seen[q] {
					seen[q] = true
					queue = append(queue, q)
				}
			}
		}
	}
	return len(seen) == len(a.procs)
}

// Route returns the static route from processor src to processor dst: the
// shortest path in hops, with deterministic tie-breaking (earliest-declared
// link, then earliest-declared processor). Routes are precomputed once and
// cached; mutating the architecture invalidates the cache.
func (a *Architecture) Route(src, dst string) (Route, error) {
	if !a.HasProcessor(src) {
		return nil, fmt.Errorf("arch %q: route: unknown processor %q", a.name, src)
	}
	if !a.HasProcessor(dst) {
		return nil, fmt.Errorf("arch %q: route: unknown processor %q", a.name, dst)
	}
	if src == dst {
		return Route{}, nil
	}
	if a.routes == nil {
		a.buildRoutes()
	}
	r, ok := a.routes[[2]string{src, dst}]
	if !ok {
		return nil, fmt.Errorf("arch %q: no route from %q to %q", a.name, src, dst)
	}
	return r, nil
}

// buildRoutes runs a BFS from every processor, producing deterministic
// shortest routes (earliest-declared link, then earliest-declared endpoint,
// wins ties).
func (a *Architecture) buildRoutes() {
	a.routes = make(map[[2]string]Route)
	for _, src := range a.procOrder {
		prevProc := map[string]string{}
		prevLink := map[string]string{}
		seen := map[string]bool{src: true}
		queue := []string{src}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, ln := range a.attach[p] {
				for _, q := range a.links[ln].endpoints {
					if q == p || seen[q] {
						continue
					}
					seen[q] = true
					prevProc[q] = p
					prevLink[q] = ln
					queue = append(queue, q)
				}
			}
		}
		for dst := range prevProc {
			var rev Route
			for at := dst; at != src; at = prevProc[at] {
				rev = append(rev, Hop{Link: prevLink[at], To: at})
			}
			r := make(Route, len(rev))
			for i := range rev {
				r[i] = rev[len(rev)-1-i]
			}
			a.routes[[2]string{src, dst}] = r
		}
	}
}

// Diameter returns the maximum route length in hops between any two
// processors, or an error if the architecture is disconnected.
func (a *Architecture) Diameter() (int, error) {
	max := 0
	for _, s := range a.procOrder {
		for _, d := range a.procOrder {
			if s == d {
				continue
			}
			r, err := a.Route(s, d)
			if err != nil {
				return 0, err
			}
			if len(r) > max {
				max = len(r)
			}
		}
	}
	return max, nil
}

// Neighbors returns the processors sharing at least one link with proc,
// sorted by name.
func (a *Architecture) Neighbors(proc string) []string {
	set := map[string]bool{}
	for _, ln := range a.attach[proc] {
		for _, q := range a.links[ln].endpoints {
			if q != proc {
				set[q] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the architecture.
func (a *Architecture) Clone() *Architecture {
	c := New(a.name)
	for _, p := range a.procOrder {
		_ = c.AddProcessor(p)
	}
	for _, ln := range a.linkOrder {
		l := a.links[ln]
		_ = c.addLink(ln, l.kind, l.endpoints)
	}
	return c
}
