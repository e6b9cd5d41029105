package sim

import (
	"sort"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// Model is the compiled form of one (schedule, graph, architecture, spec)
// quadruple: the schedule's sched.Compiled tables, each instance's
// execution time among them, plus the processors and links in sorted-name
// order. A Model is read-only after
// Compile and safe to share across any number of concurrent Runners; one
// compiled model plus a per-worker Runner is the intended shape for
// Monte-Carlo fault campaigns (internal/campaign).
//
// IDs are the sched.Compiled ones (declaration order). The engine's scans
// whose order breaks ties — processors, links — and the sorted name lists
// the Result reports run through procByName and linkByName, so they visit
// names in sorted order like the legacy engine.
type Model struct {
	c  sched.Compiled
	a  *arch.Architecture
	nP int32

	procByName []int32 // all processor IDs, sorted by name
	linkByName []int32 // all link IDs, sorted by name
	// schedProcs are the processor IDs carrying op slots, by name; the
	// engine's processor scans range over exactly this set, mirroring the
	// legacy scan of sched.Procs().
	schedProcs []int32

	// The senders fed by instance i are
	// instSenders[instSendStart[i]:instSendStart[i+1]]: completing i writes
	// the date their first hop and their failover chain read.
	instSendStart []int32
	instSenders   []int32
	// chains are the FT1 failover deliveries, in delivery order; chainOf
	// maps a delivery to its index in chains, or -1.
	chains  []int32
	chainOf []int32

	// The Runner's next-action candidates form one array in the legacy
	// scan order: the processors of schedProcs, then the links of
	// linkByName, then the chains. Slots [0, linkBase) are processors,
	// [linkBase, chainBase) links and [chainBase, nSlots) chains; procSlot
	// and linkSlot map an ID to its slot (-1 for a processor without op
	// slots), chain ci is slot chainBase+ci.
	procSlot                    []int32
	linkSlot                    []int32
	linkBase, chainBase, nSlots int32

	makespan float64
}

// Compile compiles the schedule (sched.Compile) and adds the simulator's
// tables. The graph, architecture, and constraints must be the ones the
// schedule was produced from; inconsistencies the legacy engine would only
// hit mid-run (unknown names, missing WCETs) are compile errors.
func Compile(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*Model, error) {
	c, err := sched.Compile(s, g, a, sp)
	if err != nil {
		return nil, err
	}
	m := &Model{c: *c, a: a, nP: int32(len(c.ProcNames)), makespan: s.Makespan()}
	m.procByName = sortedIDs(c.ProcNames)
	m.linkByName = sortedIDs(c.LinkNames)
	for _, p := range m.procByName {
		if c.SeqStart[p] < c.SeqStart[p+1] {
			m.schedProcs = append(m.schedProcs, p)
		}
	}
	m.instSendStart = make([]int32, len(c.Insts)+1)
	for _, sd := range c.Senders {
		if sd.SrcInst >= 0 {
			m.instSendStart[sd.SrcInst+1]++
		}
	}
	for i := range c.Insts {
		m.instSendStart[i+1] += m.instSendStart[i]
	}
	m.instSenders = make([]int32, m.instSendStart[len(c.Insts)])
	fill := append([]int32(nil), m.instSendStart[:len(c.Insts)]...)
	for si, sd := range c.Senders {
		if sd.SrcInst >= 0 {
			m.instSenders[fill[sd.SrcInst]] = int32(si)
			fill[sd.SrcInst]++
		}
	}
	m.chainOf = make([]int32, len(c.Deliveries))
	for gi, gr := range c.Deliveries {
		m.chainOf[gi] = -1
		if gr.Chain {
			m.chainOf[gi] = int32(len(m.chains))
			m.chains = append(m.chains, int32(gi))
		}
	}
	m.procSlot = make([]int32, len(c.ProcNames))
	for p := range m.procSlot {
		m.procSlot[p] = -1
	}
	for k, p := range m.schedProcs {
		m.procSlot[p] = int32(k)
	}
	m.linkBase = int32(len(m.schedProcs))
	m.linkSlot = make([]int32, len(c.LinkNames))
	for k, l := range m.linkByName {
		m.linkSlot[l] = m.linkBase + int32(k)
	}
	m.chainBase = m.linkBase + int32(len(m.linkByName))
	m.nSlots = m.chainBase + int32(len(m.chains))
	return m, nil
}

// sortedIDs returns the indices of names in sorted-name order.
func sortedIDs(names []string) []int32 {
	ids := make([]int32, len(names))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool { return names[ids[i]] < names[ids[j]] })
	return ids
}

// names maps IDs to names, in the given order.
func names(ids []int32, all []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = all[id]
	}
	return out
}

// Makespan returns the schedule's failure-free completion date.
func (m *Model) Makespan() float64 { return m.makespan }

// Procs returns the architecture's processor names, sorted.
func (m *Model) Procs() []string { return names(m.procByName, m.c.ProcNames) }

// Links returns the architecture's link names, sorted.
func (m *Model) Links() []string { return names(m.linkByName, m.c.LinkNames) }

// Validate checks the scenario against the model's architecture without
// running it, with the same errors Simulate would report.
func (m *Model) Validate(sc Scenario) error { return sc.validate(m.a) }

// Simulate runs one scenario on a fresh Runner. Callers running many
// scenarios should hold a Runner per worker and call Run repeatedly.
func (m *Model) Simulate(sc Scenario, cfg Config) (*Result, error) {
	return m.NewRunner().Run(sc, cfg)
}
