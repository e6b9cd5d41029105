package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// Validate checks that the schedule is a well-formed implementation of the
// algorithm g on the architecture a under the constraints sp, with the
// data-availability semantics of its Mode. It returns a single
// *InvalidError aggregating every violation found.
//
// The checks run on the schedule's compiled form (Compile's pass, built
// here from the slots), indexing flat per-instance, per-(edge, processor)
// and per-link arrays; names the problem does not declare are interned too,
// so a malformed schedule still gets a full report.
func (s *Schedule) Validate(g *graph.Graph, a *arch.Architecture, sp *spec.Spec) error {
	return index(s, g, a, sp).validate()
}

// InvalidError is the error Validate returns: every violation of a
// malformed schedule.
type InvalidError struct {
	Mode Mode
	K    int
	// Violations are sorted, so the report reads the same across runs.
	Violations []string
}

func (e *InvalidError) Error() string {
	return fmt.Sprintf("schedule (%s, K=%d) invalid:\n  %s", e.Mode, e.K, strings.Join(e.Violations, "\n  "))
}

// checker runs the validity checks on a pass.
type checker struct {
	*pass
	errs []string
	// See groupByEdge.
	edgeStart, byEdge, dst []int32
}

func (p *pass) validate() error {
	v := &checker{pass: p}
	v.groupByEdge()
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
	sort.Strings(v.errs)
	return &InvalidError{Mode: p.s.Mode, K: p.s.K, Violations: v.errs}
}

func (v *checker) errorf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// replicas returns op's instances in Replicas order: by rank, then
// processor name, then insertion order on the processor. The compiled
// order differs only on ties, which need two slots of op on one processor.
func (v *checker) replicas(op int) []int32 {
	c := v.c
	reps := c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]]
	if !v.dupes {
		return reps
	}
	added := func(i int32) int {
		for j, sl := range v.s.procs[c.ProcNames[c.Insts[i].Proc]] {
			if sl == v.slots[i] {
				return j
			}
		}
		return -1
	}
	reps = append([]int32(nil), reps...)
	sort.Slice(reps, func(i, j int) bool {
		a, b := &c.Insts[reps[i]], &c.Insts[reps[j]]
		if a.Replica != b.Replica {
			return a.Replica < b.Replica
		}
		if a.Proc != b.Proc {
			return c.ProcNames[a.Proc] < c.ProcNames[b.Proc]
		}
		return added(reps[i]) < added(reps[j])
	})
	return reps
}

// checkReplication verifies the replica structure required by the mode.
func (v *checker) checkReplication() {
	c := v.c
	seen := make([]int32, len(c.ProcNames)) // op+1 on the processors holding a replica of op
	for op := 0; op < int(v.nO); op++ {
		name := c.OpNames[op]
		reps := v.replicas(op)
		if len(reps) == 0 {
			v.errorf("operation %q is not scheduled", name)
			continue
		}
		want := 1
		if v.s.Mode != ModeBasic {
			want = v.s.K + 1
			if allowed := v.sp.NumAllowed(name); allowed < want {
				want = allowed
			}
		}
		if len(reps) != want {
			v.errorf("operation %q has %d replicas, want %d", name, len(reps), want)
		}
		for i, r := range reps {
			in := &c.Insts[r]
			if in.Replica != i {
				v.errorf("operation %q: replica ranks not contiguous (%d at position %d)", name, in.Replica, i)
			}
			if seen[in.Proc] == int32(op)+1 {
				v.errorf("operation %q has two replicas on processor %q", name, c.ProcNames[in.Proc])
			}
			seen[in.Proc] = int32(op) + 1
		}
		for i := 1; i < len(reps); i++ {
			prev, cur := &c.Insts[reps[i-1]], &c.Insts[reps[i]]
			if !timeLE(prev.End, cur.End) {
				v.errorf("operation %q: replica %d ends at %g after replica %d at %g; ranks must follow completion order",
					name, i-1, prev.End, i, cur.End)
			}
		}
	}
}

// checkOpSlots verifies placement legality and durations.
func (v *checker) checkOpSlots() {
	c := v.c
	for pid, p := range c.ProcNames {
		lo, hi := c.SeqStart[pid], c.SeqStart[pid+1]
		if lo == hi {
			continue
		}
		if int32(pid) >= v.nP {
			v.errorf("slot on unknown processor %q", p)
			continue
		}
		for i := lo; i < hi; i++ {
			sl := v.slots[i]
			if c.Insts[i].Op >= v.nO {
				v.errorf("slot for unknown operation %q on %q", sl.Op, p)
				continue
			}
			if sl.Start < -1e-9 {
				v.errorf("operation %q on %q starts at %g < 0", sl.Op, p, sl.Start)
			}
			if d := c.Exec[i]; math.IsInf(d, 1) {
				v.errorf("operation %q scheduled on forbidden processor %q", sl.Op, p)
			} else if !timeEq(sl.Duration(), d) {
				v.errorf("operation %q on %q lasts %g, spec says %g", sl.Op, p, sl.Duration(), d)
			}
		}
	}
}

// checkProcSequencing verifies each computation unit runs one op at a time.
func (v *checker) checkProcSequencing() {
	c := v.c
	for pid, p := range c.ProcNames {
		for i := c.SeqStart[pid] + 1; i < c.SeqStart[pid+1]; i++ {
			a, b := v.slots[i-1], v.slots[i]
			if !timeLE(a.End, b.Start) {
				v.errorf("processor %q: %q [%g,%g] overlaps %q [%g,%g]",
					p, a.Op, a.Start, a.End, b.Op, b.Start, b.End)
			}
		}
	}
}

// checkLinkSequencing verifies active comms are serialized per link, as
// imposed by the link arbiter (Section 4.3), in the order the executive
// sends them (SendsBefore): each transfer must end before the next one in
// that order starts, or the executive would run the next one late.
func (v *checker) checkLinkSequencing() {
	for _, l := range v.linkX {
		v.errorf("comm slot on unknown link %q", l)
	}
	for lid, l := range v.c.LinkNames {
		for i := v.queueStart[lid] + 1; i < v.queueStart[lid+1]; i++ {
			a, b := v.recs[v.queue[i-1]].slot, v.recs[v.queue[i]].slot
			if !timeLE(a.End, b.Start) {
				v.errorf("link %q: transfer %s [%g,%g] overlaps %s [%g,%g]",
					l, a.Edge, a.Start, a.End, b.Edge, b.Start, b.End)
			}
		}
	}
}

// comm returns the spec's duration of r's edge over r's link.
func (v *checker) comm(r *commRec) (float64, error) {
	if r.edge >= 0 && r.link < v.nL {
		if d, ok := v.view.Comm(r.edge, r.link); ok {
			return d, nil
		}
	}
	return v.sp.Comm(r.slot.Edge, r.slot.Link)
}

// checkTransfers verifies hop chains: correct endpoints, durations, and
// causality along multi-hop routes, and that hop 0 starts after the sending
// replica has produced the data.
func (v *checker) checkTransfers() {
	for t := 0; t+1 < len(v.xferStart); t++ {
		hops := v.xfer[v.xferStart[t]:v.xferStart[t+1]]
		r0 := &v.recs[hops[0]]
		first := r0.slot
		if first.Hop != 0 {
			v.errorf("transfer %d of %s: first hop has index %d", first.TransferID, first.Edge, first.Hop)
			continue
		}
		if first.From != first.SrcProc {
			v.errorf("transfer %d of %s: hop 0 starts at %q, not at source processor %q",
				first.TransferID, first.Edge, first.From, first.SrcProc)
		}
		if sender := v.producer(r0); sender < 0 {
			v.errorf("transfer %d of %s: no replica of %q on source processor %q",
				first.TransferID, first.Edge, first.Edge.Src, first.SrcProc)
		} else if end := v.c.Insts[sender].End; !timeLE(end, first.Start) {
			v.errorf("transfer %d of %s: hop 0 starts at %g before producer ends at %g",
				first.TransferID, first.Edge, first.Start, end)
		}
		for i, ri := range hops {
			r := &v.recs[ri]
			c := r.slot
			if c.Hop != i {
				v.errorf("transfer %d of %s: hop indices not contiguous", c.TransferID, c.Edge)
				break
			}
			if r.link >= v.nL {
				continue // reported by checkLinkSequencing
			}
			if !v.attaches(r.link, r.from) {
				v.errorf("transfer %d of %s: hop %d uses link %q not attached to sender %q",
					c.TransferID, c.Edge, i, c.Link, c.From)
			}
			// A broadcast has no single To; every processor on the bus
			// receives the value.
			if !c.Broadcast && !v.attaches(r.link, r.to) {
				v.errorf("transfer %d of %s: hop %d uses link %q not attached to receiver %q",
					c.TransferID, c.Edge, i, c.Link, c.To)
			}
			if d, err := v.comm(r); err != nil {
				v.errorf("transfer %d: %v", c.TransferID, err)
			} else if !timeEq(c.Duration(), d) {
				v.errorf("transfer %d of %s: hop %d lasts %g, spec says %g on %q",
					c.TransferID, c.Edge, i, c.Duration(), d, c.Link)
			}
			if i > 0 {
				prev := v.recs[hops[i-1]].slot
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
		last := v.recs[hops[len(hops)-1]].slot
		if last.DstProc != "" && last.To != last.DstProc {
			v.errorf("transfer %d of %s: final hop reaches %q, not destination %q",
				last.TransferID, last.Edge, last.To, last.DstProc)
		}
	}
}

// lastHop returns transfer t's final hop.
func (v *checker) lastHop(t int32) *commRec {
	return &v.recs[v.xfer[v.xferStart[t+1]-1]]
}

// groupByEdge groups the transfers by their final hop's edge, the key the
// data-availability and FT2 checks look deliveries up by: the transfers
// ending with declared edge e are byEdge[edgeStart[e]:edgeStart[e+1]], in
// transfer order. dst[t] is procOf of transfer t's final DstProc.
func (v *checker) groupByEdge() {
	nT := int32(len(v.xferStart) - 1)
	v.edgeStart = make([]int32, v.nE+1)
	v.dst = make([]int32, nT)
	for t := int32(0); t < nT; t++ {
		r := v.lastHop(t)
		v.dst[t] = r.dst
		if r.edge >= 0 {
			v.edgeStart[r.edge+1]++
		}
	}
	for e := int32(0); e < v.nE; e++ {
		v.edgeStart[e+1] += v.edgeStart[e]
	}
	v.byEdge = make([]int32, v.edgeStart[v.nE])
	fill := append([]int32(nil), v.edgeStart[:v.nE]...)
	for t := int32(0); t < nT; t++ {
		if e := v.lastHop(t).edge; e >= 0 {
			v.byEdge[fill[e]] = t
			fill[e]++
		}
	}
}

// arrival returns the earliest failure-free availability date of edge e's
// value on processor p, and whether it is available at all: a replica of
// the producer on p wins over any transfer; otherwise the earliest active
// final hop delivering e to p, or broadcasting it on a bus attaching p.
func (v *checker) arrival(e, p int32) (float64, bool) {
	c := v.c
	if local := c.InstAt[int(v.ids.Src[e])*len(c.ProcNames)+int(p)]; local >= 0 {
		return c.Insts[local].End, true
	}
	best, found := 0.0, false
	for _, t := range v.byEdge[v.edgeStart[e]:v.edgeStart[e+1]] {
		r := v.lastHop(t)
		last := r.slot
		switch {
		case last.Passive:
			continue
		case last.DstProc != "":
			if v.dst[t] != p {
				continue
			}
		case !last.Broadcast || r.link >= v.nL || !v.attaches(r.link, p):
			continue
		}
		if !found || last.End < best {
			best, found = last.End, true
		}
	}
	return best, found
}

// checkDataAvailability verifies that every replica starts only after each
// of its (non-delayed) inputs is available on its processor under the mode's
// semantics.
func (v *checker) checkDataAvailability() {
	c := v.c
	for i, in := range c.Insts {
		if in.Op >= v.nO {
			continue
		}
		for _, pred := range c.Preds[c.PredStart[i]:c.PredStart[i+1]] {
			at, ok := v.arrival(pred.Edge, in.Proc)
			op, p, e := c.OpNames[in.Op], c.ProcNames[in.Proc], c.Edges[pred.Edge]
			if !ok {
				v.errorf("operation %q on %q never receives input %s", op, p, e)
				continue
			}
			if !timeLE(at, in.Start) {
				v.errorf("operation %q on %q starts at %g before input %s arrives at %g",
					op, p, in.Start, e, at)
			}
		}
	}
}

// checkPassiveTimeouts verifies the structure of FT1's timeout chains: a
// passive reservation only exists in ModeFT1, is sent by a backup rank, and
// activates no earlier than its failover deadline.
func (v *checker) checkPassiveTimeouts() {
	for i := range v.recs {
		c := v.recs[i].slot
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

// checkFT2CommReplication verifies Section 7.1's communication scheme: in
// an FT2 schedule, a consumer replica colocated with any replica of its
// producer receives no transfers at all for that dependency; otherwise it
// receives one transfer from every replica of the producer.
func (v *checker) checkFT2CommReplication() {
	if v.s.Mode != ModeFT2 {
		return
	}
	c := v.c
	nP := len(c.ProcNames)
	// src[t] identifies transfer t's sending processor by name: a name no
	// op slot uses gets an ID from nP on, so distinct names stay distinct.
	src := make([]int32, len(v.dst))
	var srcX map[string]int32
	for t := range src {
		r := v.lastHop(int32(t))
		name := r.slot.SrcProc
		if src[t] = r.src; src[t] < 0 {
			id, ok := srcX[name]
			if !ok {
				if srcX == nil {
					srcX = make(map[string]int32)
				}
				id = int32(nP + len(srcX))
				srcX[name] = id
			}
			src[t] = id
		}
	}
	seen := make([]int32, nP+len(srcX))
	stamp := int32(0)
	for e := int32(0); e < v.nE; e++ {
		if v.ids.Delayed[e] {
			continue // state updates are delivered, not start-constraining
		}
		prod, cons := v.ids.Src[e], v.ids.Dst[e]
		stamp++
		nProd := 0
		for _, r := range c.OpInsts[c.OpInstStart[prod]:c.OpInstStart[prod+1]] {
			if p := c.Insts[r].Proc; seen[p] != stamp {
				seen[p] = stamp
				nProd++
			}
		}
		for _, r := range c.OpInsts[c.OpInstStart[cons]:c.OpInstStart[cons+1]] {
			p := c.Insts[r].Proc
			stamp++
			got := 0
			for _, t := range v.byEdge[v.edgeStart[e]:v.edgeStart[e+1]] {
				if v.dst[t] != p || v.lastHop(t).slot.DstProc == "" {
					continue
				}
				if seen[src[t]] != stamp {
					seen[src[t]] = stamp
					got++
				}
			}
			if c.InstAt[int(prod)*nP+int(p)] >= 0 {
				if got != 0 {
					v.errorf("FT2: consumer of %s on %q is colocated with a producer replica but receives %d transfers",
						c.Edges[e], c.ProcNames[p], got)
				}
				continue
			}
			if got != nProd {
				v.errorf("FT2: consumer of %s on %q receives from %d senders, want %d (one per producer replica)",
					c.Edges[e], c.ProcNames[p], got, nProd)
			}
		}
	}
}
