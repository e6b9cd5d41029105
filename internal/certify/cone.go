package certify

// cone is the impact cone of a set of processor failures: for each
// processor, the first static-sequence index whose execution status or
// completion date can change, and for each link, the first queue position
// whose hop dates can shift. Everything outside the cone provably keeps its
// failure-free fixpoint value, so an incremental evaluation only re-derives
// the cone (DESIGN.md §11).
//
// Dirtiness is suffix-closed by construction: a processor executes its
// static sequence in order, so once one slot's status or date can change,
// everything after it on that processor can too; likewise a link drains its
// static communication order front to back, so a skipped or re-dated entry
// can shift every later entry. A cone therefore needs only the first dirty
// index per processor and per link; a clean processor (link) carries its
// sequence (queue) length as the boundary.
type cone struct {
	procFrom []int32 // pid -> first dirty sequence index (len(seq) = clean)
	linkFrom []int32 // lid -> first dirty queue position (len(queue) = clean)
}

// newCleanCone returns the all-clean cone for the model.
func (m *model) newCleanCone() *cone {
	c := &cone{
		procFrom: make([]int32, len(m.allPids)),
		linkFrom: make([]int32, len(m.allLids)),
	}
	for pid := range c.procFrom {
		c.procFrom[pid] = m.seqLen(int32(pid))
	}
	for lid := range c.linkFrom {
		lo, hi := m.queue(int32(lid))
		c.linkFrom[lid] = hi - lo
	}
	return c
}

// buildCone computes the impact cone of a single processor's failure by
// closing three unary propagation rules over the static structure:
//
//   - a dirty slot dirties every transfer its value feeds (the producer may
//     no longer execute, or may finish at a different date);
//   - a dirty transfer dirties its own queue positions (the entry may be
//     skipped or re-dated, shifting the link drain) and the consuming slots
//     on every receiving processor (availability, FT1 timeout waits, and
//     the delivery date all flow through deliveryDate);
//   - a dirty queue position dirties every later entry on the link (drain
//     shift), whose transfers are then dirty in turn.
//
// Because every rule maps one dirty entity to a fixed set of others, the
// closure of a union of seeds is the union of the closures: unionCone can
// min-merge per-processor cones exactly.
func (m *model) buildCone(pid int) *cone {
	c := m.newCleanCone()
	seen := make([]bool, len(m.cxfers))

	var markProc func(pid int32, idx int32)
	var markXfer func(xid int32)
	var markLink func(lid int32, pos int32)

	markProc = func(pid int32, idx int32) {
		prev := c.procFrom[pid]
		if idx >= prev {
			return
		}
		c.procFrom[pid] = idx
		lo := m.c.SeqStart[pid]
		for i := idx; i < prev; i++ {
			for _, xid := range m.slotXfers[lo+i] {
				markXfer(xid)
			}
		}
	}
	markXfer = func(xid int32) {
		if seen[xid] {
			return
		}
		seen[xid] = true
		for _, hid := range m.cxfers[xid].hops {
			lid := m.hopLid[hid]
			markLink(lid, hid-m.c.QueueStart[lid])
		}
		for _, sid := range m.consSids[m.c.Senders[xid].Delivery] {
			pid := m.c.Insts[sid].Proc
			markProc(pid, sid-m.c.SeqStart[pid])
		}
	}
	markLink = func(lid int32, pos int32) {
		prev := c.linkFrom[lid]
		if pos >= prev {
			return
		}
		c.linkFrom[lid] = pos
		lo := m.c.QueueStart[lid]
		for j := pos; j < prev; j++ {
			markXfer(m.c.Queue[lo+j].Sender)
		}
	}

	// Seeds: the failed processor executes nothing, and every transfer it
	// sources or store-and-forwards dies with it.
	markProc(int32(pid), 0)
	for _, xid := range m.viaXfers[pid] {
		markXfer(xid)
	}
	return c
}

// unionCone merges the precomputed cones of the failed processors by
// element-wise min. The closure rules are unary, so the union of the closed
// per-processor cones is exactly the closed cone of the union — no joint
// re-closure is needed.
func (r *run) unionCone() *cone {
	m := r.m
	u := m.newCleanCone()
	for pid, failed := range r.byPid {
		if !failed {
			continue
		}
		c := m.cones[pid]
		for i, f := range c.procFrom {
			if f < u.procFrom[i] {
				u.procFrom[i] = f
			}
		}
		for i, f := range c.linkFrom {
			if f < u.linkFrom[i] {
				u.linkFrom[i] = f
			}
		}
	}
	return u
}

// evalIncr evaluates one failure set starting from the cached failure-free
// fixpoint: the run is cloned from it, the dirty region of the failure
// set's impact cone is invalidated, and the same chaining and relaxation
// code as evalFull re-derives it — reads below the dirty boundaries see the
// cloned (final) failure-free values, so the result is bit-identical to the
// reference engine (see DESIGN.md §11 for the argument, the differential
// tests for the enforcement).
func (m *model) evalIncr(failed []int32, detect bool) *run {
	m.ins.evalsIncr.Inc()
	r := m.newRun(failed, detect)
	ff := m.ff
	copy(r.cursor, ff.cursor)
	copy(r.executed, ff.executed)
	copy(r.end, ff.end)
	copy(r.hopEnd, ff.hopEnd)

	u := r.unionCone()
	conePids := make([]int32, 0, len(m.allPids))
	coneLids := make([]int32, 0, len(m.allLids))
	dirtySlots, dirtyHops := 0, 0
	for _, pid := range m.allPids {
		from := u.procFrom[pid]
		if from >= m.seqLen(pid) {
			continue
		}
		conePids = append(conePids, pid)
		// Invalidate the dirty executed suffix and reseed the cursor: a
		// processor that stalled before its cone even begins cannot get
		// further under more failures (availability only shrinks), so the
		// clean prefix — status and dates — stays exactly failure-free.
		seed := from
		if c := ff.cursor[pid]; c < seed {
			seed = c
		}
		for i := from; i < ff.cursor[pid]; i++ {
			r.executed[m.c.SeqStart[pid]+i] = false
		}
		dirtySlots += int(ff.cursor[pid] - seed)
		r.cursor[pid] = seed
	}
	for _, lid := range m.allLids {
		lo, hi := m.queue(lid)
		if u.linkFrom[lid] >= hi-lo {
			continue
		}
		coneLids = append(coneLids, lid)
		dirtyHops += int(hi - lo - u.linkFrom[lid])
	}
	m.ins.coneSlots.Add(int64(dirtySlots))
	m.ins.coneHops.Add(int64(dirtyHops))

	r.chain(conePids)
	r.finish()
	if r.completed {
		r.propagate(conePids, u.procFrom, coneLids, u.linkFrom)
	}
	return r
}
