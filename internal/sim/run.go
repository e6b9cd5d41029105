package sim

import (
	"math"
	"math/bits"

	"ftsched/internal/sched"
)

// This file is the compiled engine: a decision-for-decision mirror of the
// legacy engine (engine.go) over the Model's int32-indexed arrays instead of
// string-keyed maps. Every step takes the same action at the same date as
// the legacy engine — the candidate scan keeps its orders and its eps
// comparisons, and every date is computed by the same max chain — so the two
// paths produce reflect.DeepEqual Results; the differential and fuzz tests
// (compiled_test.go) hold them together. When changing simulation
// semantics, change BOTH engines.
//
// Where the legacy engine recomputes every candidate on every step, the
// compiled one caches a candidate per scheduled processor, per link, and
// per FT1 chain, in one slot array in the legacy scan order, and recomputes
// a slot only after a step wrote state it reads:
//
//	candidate    reads                              marked dirty by
//	processor p  seqIdx, seqReady, seqDead[p],      execOp(p) (done and cancel
//	             opDone[*,p], commAvail[*,p],       paths), killProc(p), and a
//	             silence(p)                         commAvail write for receiver p
//	link l       sendState, sendHopDone and         senderChanged for any sender
//	             sendHopTime of queued senders,     routed over l; instDone for a
//	             the head sender's source date      sender whose first hop is l
//	chain        its senders' state and arrival,    senderChanged or instDone for
//	             their source dates                 one of its senders
//
// resetIteration marks every slot dirty. silence(p) is constant within an
// iteration. Link and chain slots cache the date before the link is free
// and take max(date, linkFree) at scan time, so a linkFree write
// invalidates nothing. A settled chain stays settled for the rest of the
// iteration. The live bitset holds the slots that are executable, and only
// those enter the fold: the legacy scan skips every other candidate and
// the order is unchanged, so the fold picks the same action.

// silence returns the window [from, to) of iteration-local time during
// which processor p is silent in the current iteration.
func (r *Runner) silence(p int32) (from, to float64, ok bool) {
	if !r.hasFail[p] {
		return 0, 0, false
	}
	f := &r.fail[p]
	return silenceWindow(f.Iteration, f.At, f.RecoverIteration, f.RecoverAt, f.Permanent(), r.it)
}

// linkSilence is silence for link outages.
func (r *Runner) linkSilence(l int32) (from, to float64, ok bool) {
	if !r.hasLinkFail[l] {
		return 0, 0, false
	}
	f := &r.linkFail[l]
	return silenceWindow(f.Iteration, f.At, f.RecoverIteration, f.RecoverAt, f.Permanent(), r.it)
}

// deadAt is the local date at which p stops for good during the current
// iteration (+Inf while alive or merely intermittent).
func (r *Runner) deadAt(p int32) float64 {
	if !r.hasFail[p] {
		return math.Inf(1)
	}
	f := &r.fail[p]
	if !f.Permanent() {
		return math.Inf(1)
	}
	if f.Iteration < r.it {
		return 0
	}
	if f.Iteration == r.it {
		return f.At
	}
	return math.Inf(1)
}

// silentDuring reports whether p is silent at any point of [from, to).
func (r *Runner) silentDuring(p int32, from, to float64) bool {
	f, t, ok := r.silence(p)
	if !ok {
		return false
	}
	return from < t && f < to
}

// linkSilentDuring reports whether l is silent at any point of [from, to).
func (r *Runner) linkSilentDuring(l int32, from, to float64) bool {
	f, t, ok := r.linkSilence(l)
	if !ok {
		return false
	}
	return from < t && f < to
}

// silentAt reports whether p is silent at instant t.
func (r *Runner) silentAt(p int32, t float64) bool {
	f, to, ok := r.silence(p)
	return ok && t >= f-1e-9 && t < to
}

// record appends a trace event when tracing is enabled.
func (r *Runner) record(kind EventKind, what, where string, start, end float64) {
	if !r.trace {
		return
	}
	r.events = append(r.events, Event{Kind: kind, What: what, Where: where, Start: start, End: end})
}

// runCompiled executes one iteration of the reactive loop to quiescence.
// This is the per-scenario hot path: it must not allocate (hotalloc root).
func (r *Runner) runCompiled(it int) {
	m := r.m
	r.resetIteration(it)
	for { //ftlint:allow-nopoll bounded: every action consumes one pending op, hop, or failover of the finite schedule; Run and the campaign shards poll Cancel between scenarios
		r.resolve()
		k, start := r.nextAction()
		switch {
		case k < 0:
			if !r.unblock() {
				r.finalTimeoutSweep()
				return
			}
		case k < m.linkBase:
			r.execOp(m.schedProcs[k], start)
		case k < m.chainBase:
			r.execQueueHop(m.linkByName[k-m.linkBase], r.slotAt[k])
		default:
			ci := k - m.chainBase
			r.execFailover(m.chains[ci], r.chainSender[ci], start)
		}
	}
}

// resolve performs time-free state transitions until a fixed point.
func (r *Runner) resolve() {
	if !r.resolveDirty {
		return
	}
	r.resolveDirty = false
	m := r.m
	for changed := true; changed; { //ftlint:allow-nopoll bounded: each round that reports a change kills a processor or resolves a sender, both finite and monotone
		changed = false
		for _, p := range m.schedProcs {
			if r.seqDead[p] {
				continue
			}
			if from, to, ok := r.silence(p); ok && from == 0 && math.IsInf(to, 1) {
				r.killProc(p)
				changed = true
			}
		}
		for si := range m.c.Senders {
			if r.sendState[si] != sendUnknown {
				continue
			}
			sd := &m.c.Senders[si]
			if sd.SrcInst < 0 || r.instState[sd.SrcInst] == opCancelled {
				r.sendState[si] = sendNever
				r.senderChanged(int32(si))
				changed = true
			}
		}
	}
}

// killProc cancels every remaining operation of a dead processor.
func (r *Runner) killProc(p int32) {
	hi := r.m.c.SeqStart[p+1]
	for i := r.seqIdx[p]; i < hi; i++ {
		if r.instState[i] == opPending {
			r.instState[i] = opCancelled
			r.opsCancel++
		}
	}
	r.seqIdx[p] = hi
	r.seqDead[p] = true
	r.dirty.set(r.m.procSlot[p])
	r.resolveDirty = true
}

// senderChanged invalidates the candidates that read sender si's state: the
// queue of every link on its route and its failover chain.
func (r *Runner) senderChanged(si int32) {
	m := r.m
	sd := &m.c.Senders[si]
	for _, h := range m.c.Hops[sd.HopLo:sd.HopHi] {
		r.dirty.set(m.linkSlot[h.Link])
	}
	if ci := m.chainOf[sd.Delivery]; ci >= 0 {
		r.dirty.set(m.chainBase + ci)
	}
}

// instDone invalidates the candidates that read instance i's completion
// date: the first-hop queue and the failover chain of every sender it feeds.
func (r *Runner) instDone(i int32) {
	m := r.m
	for _, si := range m.instSenders[m.instSendStart[i]:m.instSendStart[i+1]] {
		sd := &m.c.Senders[si]
		if sd.HopLo < sd.HopHi {
			r.dirty.set(m.linkSlot[m.c.Hops[sd.HopLo].Link])
		}
		if ci := m.chainOf[sd.Delivery]; ci >= 0 {
			r.dirty.set(m.chainBase + ci)
		}
	}
}

// nextAction returns the slot of the executable action with the earliest
// start date, or -1, after refreshing the dirty slots. The fold visits the
// live slots in ascending order, which is the legacy scan order
// (processors and links by name, chains in delivery order), with the
// legacy comparison.
func (r *Runner) nextAction() (slot int32, start float64) {
	for w, word := range r.dirty {
		if word == 0 {
			continue
		}
		r.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			r.refreshSlot(int32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
	return foldLive(r.live, r.slotAt, r.slotLink, r.linkFree)
}

// foldLive returns the first live slot, in ascending order, whose start
// max(at[k], linkFree[link[k]]) lies more than eps below every earlier
// live slot's, with that start; -1 and +Inf when no slot is live.
func foldLive(live bitset, at []float64, link []int32, linkFree []float64) (best int32, bestStart float64) {
	best, bestStart = -1, math.Inf(1)
	limit := bestStart - eps
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			if start := max(at[k], linkFree[link[k]]); start < limit {
				best, bestStart, limit = int32(k), start, start-eps
			}
		}
	}
	return best, bestStart
}

// refreshSlot recomputes slot k's date and its live bit.
func (r *Runner) refreshSlot(k int32) {
	m := r.m
	var ok bool
	switch {
	case k < m.linkBase:
		r.slotAt[k], ok = r.nextOpStart(m.schedProcs[k])
	case k < m.chainBase:
		r.slotAt[k], ok = r.queueHeadReady(m.linkByName[k-m.linkBase])
	default:
		ok = r.refreshChain(k)
	}
	if ok {
		r.live.set(k)
	} else {
		r.live.unset(k)
	}
}

// nextOpStart returns the earliest start of p's next pending operation, if
// its inputs are available.
func (r *Runner) nextOpStart(p int32) (float64, bool) {
	m := r.m
	i := r.seqIdx[p]
	if i >= m.c.SeqStart[p+1] || r.seqDead[p] {
		return 0, false
	}
	start := r.seqReady[p]
	for k := m.c.PredStart[i]; k < m.c.PredStart[i+1]; k++ {
		at, ok := r.inputAvail(m.c.Preds[k].Edge, m.c.Preds[k].Op, p)
		if !ok {
			return 0, false
		}
		if at > start {
			start = at
		}
	}
	if from, to, ok := r.silence(p); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		start = to
	}
	return start, true
}

// inputAvail returns the earliest date edge's value is available on proc:
// the local production of the source op or the earliest reception.
func (r *Runner) inputAvail(edge, srcOp, proc int32) (float64, bool) {
	nP := r.m.nP
	best := math.Inf(1)
	if d := r.opDone[srcOp*nP+proc]; !math.IsNaN(d) {
		best = d
	}
	if d := r.commAvail[edge*nP+proc]; !math.IsNaN(d) && d < best {
		best = d
	}
	return best, !math.IsInf(best, 1)
}

// execOp runs the next operation of p, which nextAction found to start at
// start, honoring the fail-stop date or the fail-silent outage window.
func (r *Runner) execOp(p int32, start float64) {
	m := r.m
	i := r.seqIdx[p]
	end := start + m.c.Exec[i] // finite: sched.Compile rejects placements without a WCET
	r.dirty.set(m.procSlot[p])
	if from, to, ok := r.silence(p); ok {
		if math.IsInf(to, 1) {
			if start >= from-eps || end > from+eps {
				r.killProc(p)
				return
			}
		} else if start < from && end > from+eps {
			r.instState[i] = opCancelled
			r.opsCancel++
			r.seqIdx[p] = i + 1
			if to > r.seqReady[p] {
				r.seqReady[p] = to
			}
			return
		}
	}
	r.instState[i] = opDone
	r.opsExec++
	r.opDone[m.c.Insts[i].Op*m.nP+p] = end
	r.instDone(i)
	r.seqReady[p] = end
	r.seqIdx[p] = i + 1
	r.record(EventOp, m.c.OpNames[m.c.Insts[i].Op], m.c.ProcNames[p], start, end)
	if end > r.lastActivity {
		r.lastActivity = end
	}
}

// queueHeadReady returns when the data of the head entry of link l's static
// communication order is ready, skipping entries that never transmit. The
// hop starts at max(ready, linkFree[l]).
func (r *Runner) queueHeadReady(l int32) (float64, bool) {
	m := r.m
	hi := m.c.QueueStart[l+1]
	i := r.queueIdx[l]
	for ; i < hi; i++ {
		en := &m.c.Queue[i]
		st := r.sendState[en.Sender]
		if st == sendNever || st == sendDone || r.sendHopDone[en.Sender] > en.Hop {
			continue
		}
		r.queueIdx[l] = i
		return r.hopDataReady(en)
	}
	r.queueIdx[l] = i
	return 0, false
}

// hopDataReady returns when the data for a sender's next hop is available
// at the hop's origin.
func (r *Runner) hopDataReady(en *sched.QueueEntry) (float64, bool) {
	if en.Hop != r.sendHopDone[en.Sender] {
		return 0, false
	}
	if en.Hop > 0 {
		return r.sendHopTime[en.Sender], true
	}
	sd := &r.m.c.Senders[en.Sender]
	d := r.opDone[sd.SrcOp*r.m.nP+sd.Proc]
	if math.IsNaN(d) {
		return 0, false
	}
	return d, true
}

// execQueueHop executes the head entry of link l's static order, whose data
// is ready at ready.
func (r *Runner) execQueueHop(l int32, ready float64) {
	si := r.m.c.Queue[r.queueIdx[l]].Sender
	r.execHop(r.m.c.Senders[si].Delivery, si, ready)
}

// execHop transmits one hop of a transfer; a forwarding processor or the
// link itself dying mid-transfer loses the message.
func (r *Runner) execHop(gi, si int32, ready float64) {
	m := r.m
	sd := &m.c.Senders[si]
	h := &m.c.Hops[sd.HopLo+r.sendHopDone[si]]
	r.senderChanged(si) // every path below moves the sender on
	start := max(ready, r.linkFree[h.Link])
	if from, to, ok := r.silence(h.From); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		start = max(to, r.linkFree[h.Link])
	}
	if from, to, ok := r.linkSilence(h.Link); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		start = max(to, r.linkFree[h.Link])
	}
	end := start + h.Dur
	if r.silentDuring(h.From, start, end) {
		if from, _, ok := r.silence(h.From); ok && start < from && from > r.linkFree[h.Link] {
			r.linkFree[h.Link] = from
		}
		r.sendState[si] = sendNever
		r.lost++
		return
	}
	if r.linkSilentDuring(h.Link, start, end) {
		if from, _, ok := r.linkSilence(h.Link); ok && start < from && from > r.linkFree[h.Link] {
			r.linkFree[h.Link] = from
		}
		r.sendState[si] = sendNever
		r.lost++
		return
	}
	r.linkFree[h.Link] = end
	r.sendHopDone[si]++
	r.sendHopTime[si] = end
	r.sendState[si] = sendActive
	if sd.HopLo+r.sendHopDone[si] < sd.HopHi {
		return
	}
	// Final hop: the value arrives.
	r.sendState[si] = sendDone
	r.sendArrival[si] = end
	r.messages++
	gr := &m.c.Deliveries[gi]
	if r.trace {
		r.record(EventComm, m.c.Edges[gr.Edge].String(), m.c.LinkNames[h.Link], start, end)
	}
	if end > r.lastActivity {
		r.lastActivity = end
	}
	nP := m.nP
	for _, rcv := range m.c.Receivers[gr.RcvLo:gr.RcvHi] {
		if r.silentAt(rcv, end) {
			r.missed++
			continue
		}
		k := gr.Edge*nP + rcv
		if cur := r.commAvail[k]; math.IsNaN(cur) || end < cur {
			r.commAvail[k] = end
			if ps := m.procSlot[rcv]; ps >= 0 { // a receiver may hold no op slot
				r.dirty.set(ps)
			}
		}
	}
	if r.detected[sd.Proc] && !r.silentAt(sd.Proc, end) {
		r.detected[sd.Proc] = false
	}
}

// refreshChain walks the FT1 failover chain in slot k and caches the next
// passive sender ready to transmit (as an absolute sender index), or
// settles the chain. It reports whether a sender is ready.
func (r *Runner) refreshChain(k int32) bool {
	m := r.m
	ci := k - m.chainBase
	if r.chainSettled[ci] {
		return false
	}
	gr := &m.c.Deliveries[m.chains[ci]]
	effDeadline := 0.0
	for si := gr.SendLo; si < gr.SendHi; si++ {
		sd := &m.c.Senders[si]
		if r.sendSkipped[si] {
			if sd.Passive && r.sendState[si] == sendUnknown {
				if d := r.opDone[sd.SrcOp*m.nP+sd.Proc]; !math.IsNaN(d) {
					return r.chainReady(k, si, max(d, effDeadline))
				}
			}
			continue
		}
		switch r.sendState[si] {
		case sendDone:
			if r.sendArrival[si] <= effDeadline+eps || r.sendArrival[si] <= sd.Deadline+eps {
				r.chainSettled[ci] = true
				return false
			}
			effDeadline = max(effDeadline, sd.Deadline)
		case sendNever:
			effDeadline = max(effDeadline, sd.Deadline)
		case sendActive, sendUnknown:
			if !sd.Passive {
				effDeadline = max(effDeadline, sd.Deadline)
				continue
			}
			d := r.opDone[sd.SrcOp*m.nP+sd.Proc]
			if math.IsNaN(d) {
				return false
			}
			return r.chainReady(k, si, max(d, effDeadline))
		}
	}
	for si := gr.SendLo; si < gr.SendHi; si++ {
		if r.sendState[si] == sendUnknown || r.sendState[si] == sendActive {
			return false
		}
	}
	r.chainSettled[ci] = true
	return false
}

// chainReady caches sender si of the chain in slot k, which may start at at
// once its first-hop link is free.
func (r *Runner) chainReady(k, si int32, at float64) bool {
	m := r.m
	r.slotAt[k], r.slotLink[k], r.chainSender[k-m.chainBase] = at, m.c.Hops[m.c.Senders[si].HopLo].Link, si
	return true
}

// execFailover performs a backup sender's transfer after marking the
// timed-out predecessors as faulty.
func (r *Runner) execFailover(gi, si int32, start float64) {
	m := r.m
	gr := &m.c.Deliveries[gi]
	for p := gr.SendLo; p < si; p++ {
		if r.sendState[p] == sendDone && r.sendArrival[p] <= start+eps {
			r.sendState[si] = sendNever
			r.senderChanged(si)
			return
		}
	}
	r.detectEarlier(gi, si, start)
	r.failovers++
	if r.trace {
		r.record(EventFailover, m.c.Edges[gr.Edge].String(), m.c.ProcNames[m.c.Senders[si].Proc], start, start)
	}
	ready := start
	for r.sendState[si] != sendDone && r.sendState[si] != sendNever { //ftlint:allow-nopoll bounded: each execHop advances the sender one hop along its finite route
		r.execHop(gi, si, ready)
		ready = r.sendHopTime[si]
	}
}

// detectEarlier marks as faulty every earlier-ranked sender of a chain
// whose message has not been observed by the time the failover fires.
func (r *Runner) detectEarlier(gi, si int32, now float64) {
	m := r.m
	gr := &m.c.Deliveries[gi]
	for p := gr.SendLo; p < si; p++ {
		sd := &m.c.Senders[p]
		if r.sendSkipped[p] || r.detected[sd.Proc] {
			continue
		}
		if r.sendState[p] == sendDone && r.sendArrival[p] <= now+eps {
			continue
		}
		r.detected[sd.Proc] = true
		r.timeouts++
		if math.IsInf(r.deadAt(sd.Proc), 1) {
			r.falseDet++
		}
	}
}

// unblock runs at quiescence (see the legacy engine's doc comment for the
// two causes). Reports whether progress was made.
func (r *Runner) unblock() bool {
	m := r.m
	if gi, si, ready, ok := r.nextSkipHop(); ok {
		r.execHop(gi, si, ready)
		return true
	}
	progress := false
	for _, p := range m.schedProcs {
		if r.seqDead[p] || r.seqIdx[p] >= m.c.SeqStart[p+1] {
			continue
		}
		if _, to, ok := r.silence(p); ok && math.IsInf(to, 1) {
			r.killProc(p)
			progress = true
		}
	}
	for si := range m.c.Senders {
		if r.sendState[si] != sendUnknown {
			continue
		}
		sd := &m.c.Senders[si]
		if sd.SrcInst >= 0 && r.instState[sd.SrcInst] == opPending {
			r.sendState[si] = sendNever
			r.senderChanged(int32(si))
			progress = true
		}
	}
	return progress
}

// nextSkipHop scans every link's static order beyond its blocked head for
// the earliest-queued executable entry, returning the one with the earliest
// possible start across links (scanned in sorted-name order, like the
// legacy engine).
func (r *Runner) nextSkipHop() (gi, si int32, ready float64, ok bool) {
	m := r.m
	bestStart := math.Inf(1)
	gi, si = -1, -1
	for _, l := range m.linkByName {
		hi := m.c.QueueStart[l+1]
		for i := r.queueIdx[l]; i < hi; i++ {
			en := &m.c.Queue[i]
			st := r.sendState[en.Sender]
			if st == sendNever || st == sendDone || r.sendHopDone[en.Sender] > en.Hop {
				continue
			}
			rdy, dataOK := r.hopDataReady(en)
			if !dataOK {
				continue // blocked entry: look further down the order
			}
			start := max(rdy, r.linkFree[l])
			if start < bestStart-eps {
				gi, si, ready, bestStart = m.c.Senders[en.Sender].Delivery, en.Sender, rdy, start
			}
			break // only the earliest-queued ready entry per link
		}
	}
	return gi, si, ready, gi >= 0
}

// finalTimeoutSweep accounts for chains whose every sender failed: the
// receivers still waited for each undetected sender's deadline.
func (r *Runner) finalTimeoutSweep() {
	m := r.m
	for _, gi := range m.chains {
		gr := &m.c.Deliveries[gi]
		satisfied, allResolved := false, true
		for si := gr.SendLo; si < gr.SendHi; si++ {
			if r.sendState[si] == sendDone {
				satisfied = true
			}
			if r.sendState[si] == sendUnknown || r.sendState[si] == sendActive {
				allResolved = false
			}
		}
		if satisfied || !allResolved {
			continue
		}
		for si := gr.SendLo; si < gr.SendHi; si++ {
			sd := &m.c.Senders[si]
			if r.sendSkipped[si] || r.detected[sd.Proc] {
				continue
			}
			if !math.IsInf(r.deadAt(sd.Proc), 1) {
				r.detected[sd.Proc] = true
				r.timeouts++
			}
		}
	}
}
