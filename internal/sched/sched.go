// Package sched defines the static distributed schedule produced by the AAA
// heuristics: a total order of operation replicas on every computation unit
// and of communications on every link, with start/end dates in abstract time
// units.
//
// Schedules carry enough structure for the three scheduler families of the
// paper: the non-fault-tolerant baseline (one replica per operation, all
// communications active), the first fault-tolerant solution (K+1 replicas,
// a single active communication per dependency plus passive backup sends
// guarded by timeouts), and the second solution (K+1 replicas with fully
// replicated active communications).
package sched

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ftsched/internal/graph"
)

// Mode identifies which scheduler family produced a schedule; validation and
// simulation semantics depend on it.
type Mode int

// Scheduler families.
const (
	// ModeBasic is the non-fault-tolerant SynDEx baseline.
	ModeBasic Mode = iota + 1
	// ModeFT1 is the first solution: active replication of operations,
	// time redundancy (timeouts) for communications.
	ModeFT1
	// ModeFT2 is the second solution: active replication of operations and
	// communications.
	ModeFT2
)

// String returns a short name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "basic"
	case ModeFT1:
		return "ft1"
	case ModeFT2:
		return "ft2"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// OpSlot is one scheduled replica of an operation on a processor.
type OpSlot struct {
	// Op is the operation's name in the algorithm graph.
	Op string
	// Proc is the processor executing this replica.
	Proc string
	// Replica ranks the replicas of Op by completion date: 0 is the main
	// replica, 1..K the backups in election order (Section 6.1, Item 4).
	Replica int
	// Start and End are the static dates of the slot.
	Start, End float64
}

// Main reports whether this is the main replica of its operation.
func (s *OpSlot) Main() bool { return s.Replica == 0 }

// Duration returns the slot's length.
func (s *OpSlot) Duration() float64 { return s.End - s.Start }

// CommSlot is one scheduled data transfer (comm) on a link. A logical
// transfer from a producing replica to a destination processor occupies one
// CommSlot per hop of its route; slots of one transfer share TransferID and
// are numbered by Hop.
type CommSlot struct {
	// Edge is the data-dependency being transferred.
	Edge graph.EdgeKey
	// Link carries this hop.
	Link string
	// From and To are the processors at the ends of this hop.
	From, To string
	// SrcProc is the processor of the sending replica (origin of hop 0).
	SrcProc string
	// DstProc is the final destination processor of the transfer. For a bus
	// broadcast it is empty: every processor on the bus receives the value.
	DstProc string
	// SenderRank is the rank of the sending replica (0 = main). In FT1 only
	// rank-0 transfers are active; higher ranks are passive reservations.
	SenderRank int
	// TransferID groups the hops of one logical transfer; Hop numbers them
	// from 0.
	TransferID int
	// Hop is the index of this slot along its transfer's route.
	Hop int
	// Start and End are the static dates. For passive slots they are the
	// dates the transfer would occupy if activated by a failure.
	Start, End float64
	// Passive marks an FT1 backup send: it does not occupy the link unless
	// every earlier-ranked sender has been detected faulty.
	Passive bool
	// Timeout is the absolute date at which the receiver gives up waiting
	// for the previous-ranked sender and fails over (Fig. 12). Zero for
	// active slots of rank 0 in ModeBasic/ModeFT2.
	Timeout float64
	// Broadcast marks a bus transfer observed by every attached processor.
	Broadcast bool
}

// Duration returns the slot's length.
func (c *CommSlot) Duration() float64 { return c.End - c.Start }

// Schedule is a complete static distributed schedule.
type Schedule struct {
	// Mode records which scheduler produced the schedule.
	Mode Mode
	// K is the number of tolerated processor failures (0 for ModeBasic).
	K int

	procs map[string][]*OpSlot
	links map[string][]*CommSlot

	// Memoized sorted views, built lazily by the accessors and dropped on
	// mutation. Validate/Certify/render callers walk every processor and
	// link repeatedly; sorting once per mutation instead of once per call
	// keeps those walks linear. memoMu guards them, so concurrent readers
	// of one finished schedule may fill them safely.
	memoMu          sync.Mutex
	sortedProcSlots map[string][]*OpSlot
	sortedLinkSlots map[string][]*CommSlot
	procNames       []string
	linkNames       []string
	transfers       [][]*CommSlot

	nextTransfer int
}

// New returns an empty schedule for the given mode and K.
func New(mode Mode, k int) *Schedule {
	return &Schedule{
		Mode:  mode,
		K:     k,
		procs: make(map[string][]*OpSlot),
		links: make(map[string][]*CommSlot),
	}
}

// AddOpSlot records an operation replica. Slots may be added in any order;
// accessors return them sorted by start date.
func (s *Schedule) AddOpSlot(slot OpSlot) *OpSlot {
	cp := slot
	s.procs[slot.Proc] = append(s.procs[slot.Proc], &cp)
	s.memoMu.Lock()
	delete(s.sortedProcSlots, slot.Proc)
	s.procNames = nil
	s.memoMu.Unlock()
	return &cp
}

// NewTransferID allocates a fresh transfer identifier.
func (s *Schedule) NewTransferID() int {
	id := s.nextTransfer
	s.nextTransfer++
	return id
}

// ReserveTransferIDs advances the allocator so the next NewTransferID returns
// at least n. Builders that bulk-load slots carrying pre-assigned IDs (the
// core scheduler materializing its arenas) call this so later allocations
// cannot collide with the loaded ones.
func (s *Schedule) ReserveTransferIDs(n int) {
	if n > s.nextTransfer {
		s.nextTransfer = n
	}
}

// AddCommSlot records a communication hop.
func (s *Schedule) AddCommSlot(slot CommSlot) *CommSlot {
	cp := slot
	s.links[slot.Link] = append(s.links[slot.Link], &cp)
	s.memoMu.Lock()
	delete(s.sortedLinkSlots, slot.Link)
	s.linkNames = nil
	s.transfers = nil
	s.memoMu.Unlock()
	return &cp
}

// ProcSlots returns the op slots of proc sorted by start date (stable on
// insertion order for equal starts). The slice is memoized until the next
// AddOpSlot; callers must not modify it.
func (s *Schedule) ProcSlots(proc string) []*OpSlot {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if out, ok := s.sortedProcSlots[proc]; ok {
		return out
	}
	out := make([]*OpSlot, len(s.procs[proc]))
	copy(out, s.procs[proc])
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	out = out[:len(out):len(out)]
	if s.sortedProcSlots == nil {
		s.sortedProcSlots = make(map[string][]*OpSlot)
	}
	s.sortedProcSlots[proc] = out
	return out
}

// LinkSlots returns the comm slots of link sorted by start date. The slice is
// memoized until the next AddCommSlot; callers must not modify it.
func (s *Schedule) LinkSlots(link string) []*CommSlot {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if out, ok := s.sortedLinkSlots[link]; ok {
		return out
	}
	out := make([]*CommSlot, len(s.links[link]))
	copy(out, s.links[link])
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	out = out[:len(out):len(out)]
	if s.sortedLinkSlots == nil {
		s.sortedLinkSlots = make(map[string][]*CommSlot)
	}
	s.sortedLinkSlots[link] = out
	return out
}

// Procs returns the processors with at least one slot, sorted by name. The
// slice is memoized until the next AddOpSlot; callers must not modify it.
func (s *Schedule) Procs() []string {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.procNames != nil {
		return s.procNames
	}
	out := make([]string, 0, len(s.procs))
	for p := range s.procs {
		out = append(out, p)
	}
	sort.Strings(out)
	s.procNames = out[:len(out):len(out)]
	return s.procNames
}

// Links returns the links with at least one slot, sorted by name. The slice
// is memoized until the next AddCommSlot; callers must not modify it.
func (s *Schedule) Links() []string {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.linkNames != nil {
		return s.linkNames
	}
	out := make([]string, 0, len(s.links))
	for l := range s.links {
		out = append(out, l)
	}
	sort.Strings(out)
	s.linkNames = out[:len(out):len(out)]
	return s.linkNames
}

// Replicas returns the slots of op across all processors, sorted by replica
// rank (ties — only possible in malformed schedules — broken by processor
// name, so diagnostics stay deterministic).
func (s *Schedule) Replicas(op string) []*OpSlot {
	var out []*OpSlot
	for _, slots := range s.procs {
		for _, sl := range slots {
			if sl.Op == op {
				out = append(out, sl)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Replica != out[j].Replica {
			return out[i].Replica < out[j].Replica
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// MainReplica returns the main replica slot of op, or nil if op is not
// scheduled.
func (s *Schedule) MainReplica(op string) *OpSlot {
	for _, slots := range s.procs { //ftlint:order-insensitive at most one slot matches: an op has exactly one rank-0 replica
		for _, sl := range slots {
			if sl.Op == op && sl.Replica == 0 {
				return sl
			}
		}
	}
	return nil
}

// ReplicaOn returns op's slot on proc, or nil.
func (s *Schedule) ReplicaOn(op, proc string) *OpSlot {
	for _, sl := range s.procs[proc] {
		if sl.Op == op {
			return sl
		}
	}
	return nil
}

// Transfers returns all comm slots grouped by transfer, each group sorted by
// hop, groups sorted by transfer ID. The result is memoized until the next
// AddCommSlot; callers must not modify it.
func (s *Schedule) Transfers() [][]*CommSlot {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.transfers != nil {
		return s.transfers
	}
	byID := map[int][]*CommSlot{}
	for _, slots := range s.links { //ftlint:order-insensitive grouping only; ids and hops are both sorted below, and each (transfer, hop) pair is unique
		for _, c := range slots {
			byID[c.TransferID] = append(byID[c.TransferID], c)
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([][]*CommSlot, 0, len(ids))
	for _, id := range ids {
		hops := byID[id]
		sort.Slice(hops, func(i, j int) bool { return hops[i].Hop < hops[j].Hop })
		out = append(out, hops)
	}
	s.transfers = out[:len(out):len(out)]
	return s.transfers
}

// Makespan returns the completion date of the schedule in the failure-free
// execution: the latest end over op slots and active comm slots.
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for _, slots := range s.procs {
		for _, sl := range slots {
			if sl.End > m {
				m = sl.End
			}
		}
	}
	for _, slots := range s.links {
		for _, c := range slots {
			if !c.Passive && c.End > m {
				m = c.End
			}
		}
	}
	return m
}

// NumOpSlots returns the total number of scheduled operation replicas.
func (s *Schedule) NumOpSlots() int {
	n := 0
	for _, slots := range s.procs {
		n += len(slots)
	}
	return n
}

// NumActiveComms returns the number of active (failure-free) inter-processor
// communication hops.
func (s *Schedule) NumActiveComms() int {
	n := 0
	for _, slots := range s.links {
		for _, c := range slots {
			if !c.Passive {
				n++
			}
		}
	}
	return n
}

// NumPassiveComms returns the number of passive (timeout-guarded) hops.
func (s *Schedule) NumPassiveComms() int {
	n := 0
	for _, slots := range s.links {
		for _, c := range slots {
			if c.Passive {
				n++
			}
		}
	}
	return n
}

// TotalActiveCommTime returns the summed duration of active hops, the
// failure-free communication load of the schedule. Links are visited in
// sorted order so the floating-point sum is bit-identical across runs.
func (s *Schedule) TotalActiveCommTime() float64 {
	t := 0.0
	for _, link := range s.Links() {
		for _, c := range s.links[link] {
			if !c.Passive {
				t += c.Duration()
			}
		}
	}
	return t
}

// ProcBusyTime returns the summed execution time scheduled on proc.
func (s *Schedule) ProcBusyTime(proc string) float64 {
	t := 0.0
	for _, sl := range s.procs[proc] {
		t += sl.Duration()
	}
	return t
}

// Utilization returns ProcBusyTime / Makespan for proc, or 0 for an empty
// schedule.
func (s *Schedule) Utilization(proc string) float64 {
	m := s.Makespan()
	if m == 0 {
		return 0
	}
	return s.ProcBusyTime(proc) / m
}

// Overhead returns the fault-tolerance overhead relative to a baseline
// schedule of the same problem: Makespan() - base.Makespan() (Sections 6.6
// and 7.4 report exactly this difference).
func (s *Schedule) Overhead(base *Schedule) float64 {
	return s.Makespan() - base.Makespan()
}

// timeEq reports near-equality of schedule dates, absorbing float64 noise
// accumulated by repeated additions of durations such as 0.1.
func timeEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// timeLE reports a <= b up to the same tolerance.
func timeLE(a, b float64) bool { return a <= b+1e-6 }
