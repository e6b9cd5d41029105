package certify

import "math"

// run is the outcome of evaluating one failure set: which replicas execute,
// the worst-case completion dates of the executed prefixes, and whether
// every output is still delivered. All state is dense (indexed by the
// compiled identifiers). A full evaluation derives everything from
// scratch; an incremental one clones the failure-free fixpoint and
// re-derives only the dirty region of the failure set's impact cone — both
// drive the same chaining and relaxation code, restricted to different
// scopes, so the derived values are bit-identical (DESIGN.md §11).
type run struct {
	m      *model
	byPid  []bool // pid -> failed
	detect bool   // failures already detected (FT1 skips their timeouts)

	cursor   []int32   // pid -> executed prefix length of the static sequence
	executed []bool    // sid -> replica executes under the failure set
	end      []float64 // sid -> worst-case completion (valid iff executed)
	hopEnd   []float64 // hid -> worst-case hop end (valid iff the sender delivers)

	// Date relaxation scratch: the delivers table (fixed once chaining is
	// done) and each processor's busy and each link's drain date, carried
	// through one sweep.
	deliv []bool    // xid -> the sender's value gets through
	busy  []float64 // pid -> completion of the last slot swept
	drain []float64 // lid -> end of the last transmitting hop swept

	completed bool
	missing   []int32 // undelivered output ops, in graph order
	resp      float64 // worst-case response-time bound (max over outputs)
}

// newRun allocates a zeroed run for a failure set of processor IDs.
func (m *model) newRun(failed []int32, detect bool) *run {
	P, L := len(m.allPids), len(m.allLids)
	I, Q, X := len(m.c.Insts), len(m.c.Queue), len(m.c.Senders)
	flags := make([]bool, P+I+X)
	dates := make([]float64, I+Q+P+L)
	r := &run{
		m: m, detect: detect,
		byPid:    flags[:P:P],
		cursor:   make([]int32, P),
		executed: flags[P : P+I : P+I],
		deliv:    flags[P+I:],
		end:      dates[:I:I],
		hopEnd:   dates[I : I+Q : I+Q],
		busy:     dates[I+Q : I+Q+P : I+Q+P],
		drain:    dates[I+Q+P:],
	}
	for _, pid := range failed {
		r.byPid[pid] = true
	}
	return r
}

// evalFull computes the least fixed point of "replica executes" under the
// failure set from scratch — the static mirror of the simulator's
// semantics: a processor executes its static sequence in order, an
// operation starts once every strict input is available locally, and a
// delivery provides a value when some sender with a surviving route and a
// computing producer exists (first rank for FT1 chains, any sender
// otherwise). When every output survives, worst-case dates are then
// propagated over the executed instances. This is the reference engine;
// evalIncr must match it bit-for-bit (enforced by the differential tests).
func (m *model) evalFull(failed []int32, detect bool) *run {
	m.ins.evalsFull.Inc()
	r := m.newRun(failed, detect)
	r.chain(m.allPids)
	r.finish()
	if r.completed {
		r.propagate(m.allPids, m.zerosP, m.allLids, m.zerosL)
	}
	return r
}

// chain runs phase 1, reachability: round-based forward chaining over the
// given processors; each round advances every alive cursor as far as its
// head inputs allow, until no processor can advance (the rest is blocked
// forever, exactly as a simulator iteration reaches quiescence). Cursors
// must be pre-seeded by the caller.
func (r *run) chain(pids []int32) {
	for progress := true; progress; { //ftlint:allow-nopoll bounded: every round that reports progress executes at least one slot, so rounds <= total slots
		r.m.ins.rounds.Inc()
		progress = false
		for _, pid := range pids {
			if r.byPid[pid] {
				continue
			}
			lo, n := r.m.c.SeqStart[pid], r.m.c.SeqStart[pid+1]-r.m.c.SeqStart[pid]
			for r.cursor[pid] < n { //ftlint:allow-nopoll bounded: the cursor strictly advances, so trips <= the sequence length
				sid := lo + r.cursor[pid]
				if !r.inputsAvailable(sid) {
					break
				}
				r.executed[sid] = true
				r.cursor[pid]++
				progress = true
			}
		}
	}
}

// finish runs the output check closing phase 1.
func (r *run) finish() {
	c := r.m.c
	r.completed = true
	for _, op := range c.Outputs {
		alive := false
		for _, sid := range c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]] {
			if r.executed[sid] {
				alive = true
				break
			}
		}
		if !alive {
			r.completed = false
			r.missing = append(r.missing, op)
		}
	}
}

// inputsAvailable reports whether every strict input of the slot is
// available on its processor under the failure set, given the currently
// executed instances.
func (r *run) inputsAvailable(sid int32) bool {
	for k := r.m.c.PredStart[sid]; k < r.m.c.PredStart[sid+1]; k++ {
		if !r.available(&r.m.slotIn[k]) {
			return false
		}
	}
	return true
}

// available reports whether an input's value reaches its processor: the
// local replica of the producer executes, or some delivery has a sender
// that gets the value through.
func (r *run) available(in *cinput) bool {
	return (in.localSid >= 0 && r.executed[in.localSid]) || r.anySenderDelivers(in.delivs)
}

// anySenderDelivers reports whether any sender of any of the deliveries
// gets its value through.
func (r *run) anySenderDelivers(dids []int32) bool {
	for _, did := range dids {
		d := &r.m.c.Deliveries[did]
		for xid := d.SendLo; xid < d.SendHi; xid++ {
			if r.delivers(xid) {
				return true
			}
		}
	}
	return false
}

// delivers reports whether a sender's value gets through: its source and
// every store-and-forward processor on its route survive, and its producing
// replica executes.
func (r *run) delivers(xid int32) bool {
	sd := &r.m.c.Senders[xid]
	if sd.SrcInst < 0 || r.byPid[sd.Proc] || !r.executed[sd.SrcInst] {
		return false
	}
	for _, f := range r.m.cxfers[xid].fwd {
		if r.byPid[f] {
			return false
		}
	}
	return true
}

// propagate runs phase 2, worst-case dates, over the given scope: the
// monotone date equations are iterated from +Inf downward until they
// stabilize, relaxing each link's queue from fromL[lid] and each alive
// processor's executed prefix from fromP[pid]. The full engine passes the
// whole schedule with zero boundaries; the incremental engine passes the
// failure set's impact cone, with the clean prefixes already carrying their
// (final) failure-free dates. An FT1 failover transfer activates at the
// statically computed deadline of the ranks it replaces and runs its hops
// back to back; the link time of a reactivated transfer is not charged to
// the queued entries (the receivers of a failover are idle waiting for it),
// the one approximation of the analysis.
//
// A round is one sweep over the model's static-date order (buildOrder), so
// a date usually sees its inputs' dates of the same round; a bus schedule
// settles in one sweep plus the confirming one.
func (r *run) propagate(pids []int32, fromP []int32, lids []int32, fromL []int32) {
	m := r.m
	for xid := range r.deliv {
		r.deliv[xid] = r.delivers(int32(xid))
	}
	// Registration: every date derived in this scope starts at +Inf.
	n := 0
	for _, pid := range pids {
		if r.byPid[pid] {
			continue
		}
		lo := m.c.SeqStart[pid]
		for i := fromP[pid]; i < r.cursor[pid]; i++ {
			r.end[lo+i] = math.Inf(1)
			n++
		}
	}
	nq := 0
	for _, lid := range lids {
		lo, hi := m.queue(lid)
		for hid := lo + fromL[lid]; hid < hi; hid++ {
			if r.deliv[m.c.Queue[hid].Sender] {
				r.hopEnd[hid] = math.Inf(1)
			}
			nq++
		}
	}
	n += nq
	for round := 0; round <= n+1; round++ {
		m.ins.rounds.Inc()
		// Seed the running dates at the scope boundaries: the preceding
		// slot is clean and, since the cursor got past it, executed, so its
		// failure-free date is final; likewise the link's failure-free
		// drain date entering the dirty suffix.
		for _, pid := range pids {
			r.busy[pid] = 0
			if from := fromP[pid]; from > 0 {
				r.busy[pid] = r.end[m.c.SeqStart[pid]+from-1]
			}
		}
		for _, lid := range lids {
			r.drain[lid] = 0
			if from := fromL[lid]; from > 0 {
				r.drain[lid] = m.freeAfter[lid][from]
			}
		}
		if !r.sweep(fromP, fromL) {
			break
		}
	}
	r.computeResp()
}

// sweep re-dates the in-scope units once, in the model's order, and reports
// whether any date moved; it skips units on a failed processor, before a
// scope boundary, or at or after a processor's cursor. A slot starts after
// the processor's previous slot and after each input's worst-case arrival.
// A transmitting hop waits for its data and for the link to drain the
// earlier transmitting entries (the simulator's queue discipline); a hop
// whose sender does not deliver never transmits, and the queue skips it.
func (r *run) sweep(fromP, fromL []int32) bool {
	m := r.m
	c := m.c
	changed := false
	for _, u := range m.order {
		if u >= 0 {
			in := &c.Insts[u]
			pid := in.Proc
			if i := u - c.SeqStart[pid]; r.byPid[pid] || i < fromP[pid] || i >= r.cursor[pid] {
				continue
			}
			start := r.busy[pid]
			for k := c.PredStart[u]; k < c.PredStart[u+1]; k++ {
				if at := r.availDate(&m.slotIn[k]); at > start {
					start = at
				}
			}
			end := start + (in.End - in.Start)
			if !dateEq(end, r.end[u]) {
				r.end[u] = end
				changed = true
			}
			r.busy[pid] = end
			continue
		}
		hid := ^u
		lid := m.hopLid[hid]
		xid := c.Queue[hid].Sender
		if hid-c.QueueStart[lid] < fromL[lid] || !r.deliv[xid] {
			continue
		}
		ready := math.Inf(1)
		switch prev := m.hopPrev[hid]; prev {
		case -1:
			ready = 0
			if sid := c.Senders[xid].SrcInst; r.executed[sid] {
				ready = r.end[sid]
			}
		case -2:
			// behind a passive hop: never queue-fed
		default:
			ready = r.hopEnd[prev]
		}
		end := math.Max(ready, r.drain[lid]) + m.hopDur[hid]
		if !dateEq(end, r.hopEnd[hid]) {
			r.hopEnd[hid] = end
			changed = true
		}
		r.drain[lid] = end
	}
	return changed
}

// availDate returns the worst-case date an input's value is available
// (+Inf while upstream dates are still settling).
func (r *run) availDate(in *cinput) float64 {
	best := math.Inf(1)
	if in.localSid >= 0 && r.executed[in.localSid] {
		best = r.end[in.localSid]
	}
	for _, did := range in.delivs {
		if at := r.deliveryDate(did); at < best {
			best = at
		}
	}
	return best
}

// deliveryDate returns the worst-case arrival date of a delivery under the
// failure set. For FT1 chains the receivers wait out the statically
// computed deadline of every non-delivering earlier rank (unless the
// failure is already detected), then the first surviving sender transmits;
// in the other modes the earliest surviving sender wins.
func (r *run) deliveryDate(did int32) float64 {
	m := r.m
	d := &m.c.Deliveries[did]
	if d.Chain {
		eff := 0.0
		for xid := d.SendLo; xid < d.SendHi; xid++ {
			x := &m.c.Senders[xid]
			if !r.deliv[xid] {
				if !r.detect {
					eff = math.Max(eff, x.Deadline)
				}
				continue
			}
			if x.Passive {
				// Failover activation at the statically computed deadline
				// (or once the backup has the value, whichever is later),
				// then the hops run back to back.
				prod := 0.0
				if r.executed[x.SrcInst] {
					prod = r.end[x.SrcInst]
				}
				return math.Max(eff, prod) + m.cxfers[xid].dur
			}
			return r.arrival(xid)
		}
		return math.Inf(1)
	}
	best := math.Inf(1)
	for xid := d.SendLo; xid < d.SendHi; xid++ {
		if !r.deliv[xid] {
			continue
		}
		if at := r.arrival(xid); at < best {
			best = at
		}
	}
	return best
}

// arrival returns the worst-case final-hop arrival of a delivering active
// sender under the link serialization (+Inf while upstream dates settle).
func (r *run) arrival(xid int32) float64 {
	last := r.m.cxfers[xid].last
	if last < 0 {
		return math.Inf(1)
	}
	return r.hopEnd[last]
}

// computeResp derives the worst-case response-time bound: the max over
// outputs of the best surviving replica's completion date.
func (r *run) computeResp() {
	c := r.m.c
	r.resp = 0
	for _, op := range c.Outputs {
		best := math.Inf(1)
		for _, sid := range c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]] {
			if r.executed[sid] && r.end[sid] < best {
				best = r.end[sid]
			}
		}
		if best > r.resp {
			r.resp = best
		}
	}
}
