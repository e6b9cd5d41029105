package sched

// The string-view validator Validate replaced, kept as the oracle
// FuzzValidateDifferential compares the compiled validator against.

import (
	"fmt"
	"sort"
	"strings"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// Validate checks that the schedule is a well-formed implementation of the
// algorithm g on the architecture a under the constraints sp, with the
// data-availability semantics of its Mode. It returns a single error
// aggregating every violation found.
func refValidate(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) error {
	v := &refValidator{s: s, g: g, a: a, sp: sp}
	v.index()
	v.checkReplication()
	v.checkOpSlots()
	v.checkProcSequencing()
	v.checkLinkSequencing()
	v.checkTransfers()
	v.checkDataAvailability()
	v.checkPassiveTimeouts()
	v.checkFT2CommReplication()
	if len(v.errs) == 0 {
		return nil
	}
	// Sort the aggregated violations so the error reads the same across
	// runs: several checks walk map-backed collections whose iteration
	// order would otherwise leak into the message.
	sort.Strings(v.errs)
	return fmt.Errorf("schedule (%s, K=%d) invalid:\n  %s", s.Mode, s.K, strings.Join(v.errs, "\n  "))
}

type refValidator struct {
	s    *Schedule
	g    *graph.Graph
	a    *arch.Architecture
	sp   *spec.Spec
	errs []string

	transfers [][]*CommSlot                  // cached s.Transfers()
	replicaOn map[[2]string]*OpSlot          // (op, proc) -> slot
	delivered map[refDeliveryKey][]*CommSlot // active final hops per (edge, proc)
}

type refDeliveryKey struct {
	edge graph.EdgeKey
	proc string
}

// index precomputes the lookups the per-slot checks need, keeping the
// refValidator linear in the schedule size.
func (v *refValidator) index() {
	v.transfers = v.s.Transfers()
	v.replicaOn = make(map[[2]string]*OpSlot, v.s.NumOpSlots())
	for _, p := range v.s.Procs() {
		for _, sl := range v.s.ProcSlots(p) {
			v.replicaOn[[2]string{sl.Op, p}] = sl
		}
	}
	v.delivered = make(map[refDeliveryKey][]*CommSlot)
	for _, hops := range v.transfers {
		last := hops[len(hops)-1]
		if last.Passive {
			continue
		}
		if last.DstProc != "" {
			key := refDeliveryKey{edge: last.Edge, proc: last.DstProc}
			v.delivered[key] = append(v.delivered[key], last)
			continue
		}
		if last.Broadcast {
			if l := v.a.Link(last.Link); l != nil {
				for _, p := range l.Endpoints() {
					key := refDeliveryKey{edge: last.Edge, proc: p}
					v.delivered[key] = append(v.delivered[key], last)
				}
			}
		}
	}
}

func (v *refValidator) errorf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// checkReplication verifies the replica structure required by the mode.
func (v *refValidator) checkReplication() {
	for _, op := range v.g.OpNames() {
		reps := v.s.Replicas(op)
		if len(reps) == 0 {
			v.errorf("operation %q is not scheduled", op)
			continue
		}
		want := 1
		if v.s.Mode != ModeBasic {
			want = v.s.K + 1
			if allowed := len(v.sp.AllowedProcs(op)); allowed < want {
				want = allowed
			}
		}
		if len(reps) != want {
			v.errorf("operation %q has %d replicas, want %d", op, len(reps), want)
		}
		procs := map[string]bool{}
		for i, r := range reps {
			if r.Replica != i {
				v.errorf("operation %q: replica ranks not contiguous (%d at position %d)", op, r.Replica, i)
			}
			if procs[r.Proc] {
				v.errorf("operation %q has two replicas on processor %q", op, r.Proc)
			}
			procs[r.Proc] = true
		}
		for i := 1; i < len(reps); i++ {
			if !timeLE(reps[i-1].End, reps[i].End) {
				v.errorf("operation %q: replica %d ends at %g after replica %d at %g; ranks must follow completion order",
					op, i-1, reps[i-1].End, i, reps[i].End)
			}
		}
	}
}

// checkOpSlots verifies placement legality and durations.
func (v *refValidator) checkOpSlots() {
	for _, p := range v.s.Procs() {
		if !v.a.HasProcessor(p) {
			v.errorf("slot on unknown processor %q", p)
			continue
		}
		for _, sl := range v.s.ProcSlots(p) {
			if !v.g.HasOp(sl.Op) {
				v.errorf("slot for unknown operation %q on %q", sl.Op, p)
				continue
			}
			if sl.Start < -1e-9 {
				v.errorf("operation %q on %q starts at %g < 0", sl.Op, p, sl.Start)
			}
			d := v.sp.Exec(sl.Op, p)
			if !v.sp.CanRun(sl.Op, p) {
				v.errorf("operation %q scheduled on forbidden processor %q", sl.Op, p)
			} else if !timeEq(sl.Duration(), d) {
				v.errorf("operation %q on %q lasts %g, spec says %g", sl.Op, p, sl.Duration(), d)
			}
		}
	}
}

// checkProcSequencing verifies each computation unit runs one op at a time.
func (v *refValidator) checkProcSequencing() {
	for _, p := range v.s.Procs() {
		slots := v.s.ProcSlots(p)
		for i := 1; i < len(slots); i++ {
			if !timeLE(slots[i-1].End, slots[i].Start) {
				v.errorf("processor %q: %q [%g,%g] overlaps %q [%g,%g]",
					p, slots[i-1].Op, slots[i-1].Start, slots[i-1].End,
					slots[i].Op, slots[i].Start, slots[i].End)
			}
		}
	}
}

// checkLinkSequencing verifies active comms are serialized per link, as
// imposed by the link arbiter (Section 4.3), in the order the executive
// sends them (SendsBefore): each transfer must end before the next one in
// that order starts, or the executive would run the next one late.
func (v *refValidator) checkLinkSequencing() {
	for _, l := range v.s.Links() {
		if v.a.Link(l) == nil {
			v.errorf("comm slot on unknown link %q", l)
			continue
		}
		var active []*CommSlot
		for _, c := range v.s.LinkSlots(l) {
			if !c.Passive {
				active = append(active, c)
			}
		}
		sort.SliceStable(active, func(i, j int) bool { return SendsBefore(active[i], active[j]) })
		for i := 1; i < len(active); i++ {
			if !timeLE(active[i-1].End, active[i].Start) {
				v.errorf("link %q: transfer %s [%g,%g] overlaps %s [%g,%g]",
					l, active[i-1].Edge, active[i-1].Start, active[i-1].End,
					active[i].Edge, active[i].Start, active[i].End)
			}
		}
	}
}

// checkTransfers verifies hop chains: correct endpoints, durations, and
// causality along multi-hop routes, and that hop 0 starts after the sending
// replica has produced the data.
func (v *refValidator) checkTransfers() {
	for _, hops := range v.transfers {
		first := hops[0]
		if first.Hop != 0 {
			v.errorf("transfer %d of %s: first hop has index %d", first.TransferID, first.Edge, first.Hop)
			continue
		}
		if first.From != first.SrcProc {
			v.errorf("transfer %d of %s: hop 0 starts at %q, not at source processor %q",
				first.TransferID, first.Edge, first.From, first.SrcProc)
		}
		sender := v.replicaOn[[2]string{first.Edge.Src, first.SrcProc}]
		if sender == nil {
			v.errorf("transfer %d of %s: no replica of %q on source processor %q",
				first.TransferID, first.Edge, first.Edge.Src, first.SrcProc)
		} else if !timeLE(sender.End, first.Start) {
			v.errorf("transfer %d of %s: hop 0 starts at %g before producer ends at %g",
				first.TransferID, first.Edge, first.Start, sender.End)
		}
		for i, c := range hops {
			if c.Hop != i {
				v.errorf("transfer %d of %s: hop indices not contiguous", c.TransferID, c.Edge)
				break
			}
			link := v.a.Link(c.Link)
			if link == nil {
				continue // reported by checkLinkSequencing
			}
			if !link.Connects(c.From) {
				v.errorf("transfer %d of %s: hop %d uses link %q not attached to sender %q",
					c.TransferID, c.Edge, i, c.Link, c.From)
			}
			// A broadcast has no single To; every processor on the bus
			// receives the value.
			if !c.Broadcast && !link.Connects(c.To) {
				v.errorf("transfer %d of %s: hop %d uses link %q not attached to receiver %q",
					c.TransferID, c.Edge, i, c.Link, c.To)
			}
			if d, err := v.sp.Comm(c.Edge, c.Link); err != nil {
				v.errorf("transfer %d: %v", c.TransferID, err)
			} else if !timeEq(c.Duration(), d) {
				v.errorf("transfer %d of %s: hop %d lasts %g, spec says %g on %q",
					c.TransferID, c.Edge, i, c.Duration(), d, c.Link)
			}
			if i > 0 {
				prev := hops[i-1]
				if prev.To != c.From {
					v.errorf("transfer %d of %s: hop %d starts at %q but hop %d ended at %q",
						c.TransferID, c.Edge, i, c.From, i-1, prev.To)
				}
				if !timeLE(prev.End, c.Start) {
					v.errorf("transfer %d of %s: hop %d starts at %g before hop %d ends at %g",
						c.TransferID, c.Edge, i, c.Start, i-1, prev.End)
				}
			}
		}
		last := hops[len(hops)-1]
		if last.DstProc != "" && last.To != last.DstProc {
			v.errorf("transfer %d of %s: final hop reaches %q, not destination %q",
				last.TransferID, last.Edge, last.To, last.DstProc)
		}
	}
}

// arrivalAt returns the earliest failure-free availability date of edge's
// value on proc, and whether it is available at all. Local availability (a
// replica of the producer on proc) wins over any transfer.
func (v *refValidator) arrivalAt(e graph.EdgeKey, proc string) (float64, bool) {
	if local := v.replicaOn[[2]string{e.Src, proc}]; local != nil {
		return local.End, true
	}
	best := 0.0
	found := false
	for _, last := range v.delivered[refDeliveryKey{edge: e, proc: proc}] {
		if !found || last.End < best {
			best = last.End
			found = true
		}
	}
	return best, found
}

// checkPassiveTimeouts verifies the structure of FT1's timeout chains: a
// passive reservation only exists in ModeFT1, is sent by a backup rank, and
// activates no earlier than its failover deadline.
func (v *refValidator) checkPassiveTimeouts() {
	for _, l := range v.s.Links() {
		for _, c := range v.s.LinkSlots(l) {
			if !c.Passive {
				continue
			}
			if v.s.Mode != ModeFT1 {
				v.errorf("passive transfer of %s in a %s schedule", c.Edge, v.s.Mode)
			}
			if c.SenderRank < 1 {
				v.errorf("passive transfer of %s has sender rank %d, want >= 1", c.Edge, c.SenderRank)
			}
			if c.Hop == 0 && c.Start < c.Timeout-1e-9 {
				v.errorf("passive transfer of %s starts at %g before its failover deadline %g",
					c.Edge, c.Start, c.Timeout)
			}
		}
	}
}

// checkFT2CommReplication verifies Section 7.1's communication scheme: in
// an FT2 schedule, a consumer replica colocated with any replica of its
// producer receives no transfers at all for that dependency; otherwise it
// receives one transfer from every replica of the producer.
func (v *refValidator) checkFT2CommReplication() {
	if v.s.Mode != ModeFT2 {
		return
	}
	// senders[edge][dstProc] = set of source processors with a transfer.
	senders := map[graph.EdgeKey]map[string]map[string]bool{}
	for _, hops := range v.transfers {
		last := hops[len(hops)-1]
		if last.DstProc == "" {
			continue
		}
		byDst, ok := senders[last.Edge]
		if !ok {
			byDst = map[string]map[string]bool{}
			senders[last.Edge] = byDst
		}
		if byDst[last.DstProc] == nil {
			byDst[last.DstProc] = map[string]bool{}
		}
		byDst[last.DstProc][last.SrcProc] = true
	}
	for _, e := range v.g.Edges() {
		if e.Delayed() {
			continue // state updates are delivered, not start-constraining
		}
		prodProcs := map[string]bool{}
		for _, rep := range v.s.Replicas(e.Src()) {
			prodProcs[rep.Proc] = true
		}
		for _, cons := range v.s.Replicas(e.Dst()) {
			got := len(senders[e.Key()][cons.Proc])
			if prodProcs[cons.Proc] {
				if got != 0 {
					v.errorf("FT2: consumer of %s on %q is colocated with a producer replica but receives %d transfers",
						e.Key(), cons.Proc, got)
				}
				continue
			}
			if got != len(prodProcs) {
				v.errorf("FT2: consumer of %s on %q receives from %d senders, want %d (one per producer replica)",
					e.Key(), cons.Proc, got, len(prodProcs))
			}
		}
	}
}

// checkDataAvailability verifies that every replica starts only after each
// of its (non-delayed) inputs is available on its processor under the mode's
// semantics.
func (v *refValidator) checkDataAvailability() {
	for _, p := range v.s.Procs() {
		for _, sl := range v.s.ProcSlots(p) {
			if !v.g.HasOp(sl.Op) {
				continue
			}
			for _, pred := range refStrictPreds(v.g, sl.Op) {
				e := graph.EdgeKey{Src: pred, Dst: sl.Op}
				at, ok := v.arrivalAt(e, p)
				if !ok {
					v.errorf("operation %q on %q never receives input %s", sl.Op, p, e)
					continue
				}
				if !timeLE(at, sl.Start) {
					v.errorf("operation %q on %q starts at %g before input %s arrives at %g",
						sl.Op, p, sl.Start, e, at)
				}
			}
		}
	}
}
