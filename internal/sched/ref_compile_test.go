package sched

// The two-pass Compile, which interned the schedule through the
// string-keyed Deliveries view, kept as the oracle TestCompileMatchesReference
// and FuzzValidateDifferential compare the one-pass Compile against.

import (
	"fmt"
	"math"
	"sort"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// refCompile interns and flattens s into a Compiled form. The graph,
// architecture and constraints must be the ones the schedule was produced
// from; names they do not know and placements without a WCET are reported
// as errors.
func refCompile(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*Compiled, error) {
	c := &Compiled{
		Mode:      s.Mode,
		ProcNames: a.ProcessorNames(),
		LinkNames: a.LinkNames(),
		OpNames:   g.OpNames(),
	}
	procID := refIntern(c.ProcNames)
	opID := refIntern(c.OpNames)
	edgeID := make(map[graph.EdgeKey]int32, g.NumEdges())
	for _, e := range g.Edges() {
		edgeID[e.Key()] = int32(len(c.Edges))
		c.Edges = append(c.Edges, e.Key())
	}
	nP := len(c.ProcNames)

	for _, p := range s.Procs() {
		if _, ok := procID[p]; !ok {
			return nil, fmt.Errorf("sched: schedule uses unknown processor %q", p)
		}
	}
	c.InstAt = make([]int32, len(c.OpNames)*nP)
	for i := range c.InstAt {
		c.InstAt[i] = -1
	}
	c.SeqStart = make([]int32, nP+1)
	for pid, p := range c.ProcNames {
		c.SeqStart[pid] = int32(len(c.Insts))
		for _, sl := range s.ProcSlots(p) {
			oid, ok := opID[sl.Op]
			if !ok {
				return nil, fmt.Errorf("sched: schedule places unknown operation %q", sl.Op)
			}
			d := sp.Exec(sl.Op, p)
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("sched: operation %q has no WCET on processor %q", sl.Op, p)
			}
			c.Exec = append(c.Exec, d)
			c.InstAt[int(oid)*nP+pid] = int32(len(c.Insts))
			c.PredStart = append(c.PredStart, int32(len(c.Preds)))
			for _, pred := range refStrictPreds(g, sl.Op) {
				key := graph.EdgeKey{Src: pred, Dst: sl.Op}
				eid, ok := edgeID[key]
				if !ok {
					return nil, fmt.Errorf("sched: dependency %s is not a graph edge", key)
				}
				c.Preds = append(c.Preds, Pred{Op: opID[pred], Edge: eid})
			}
			c.Insts = append(c.Insts, Inst{Op: oid, Proc: int32(pid), Replica: sl.Replica, Start: sl.Start, End: sl.End})
		}
	}
	c.SeqStart[nP] = int32(len(c.Insts))
	c.PredStart = append(c.PredStart, int32(len(c.Preds)))
	c.refCompileReplicas()
	if err := c.refCompileDeliveries(s, a, procID, opID, edgeID); err != nil {
		return nil, err
	}

	outs := g.Outputs()
	if len(outs) == 0 {
		outs = g.Sinks()
	}
	for _, out := range outs {
		oid, ok := opID[out]
		if !ok {
			return nil, fmt.Errorf("sched: output %q is not a graph operation", out)
		}
		c.Outputs = append(c.Outputs, oid)
	}
	return c, nil
}

// refStrictPreds returns the predecessors of op through non-delayed edges.
func refStrictPreds(g *graph.Graph, op string) []string {
	var out []string
	for _, pred := range g.Preds(op) {
		if !g.Edge(graph.EdgeKey{Src: pred, Dst: op}).Delayed() {
			out = append(out, pred)
		}
	}
	return out
}

// refIntern maps each name to its index.
func refIntern(names []string) map[string]int32 {
	id := make(map[string]int32, len(names))
	for i, n := range names {
		id[n] = int32(i)
	}
	return id
}

// refCompileReplicas groups the instances by operation, ranked like Replicas.
func (c *Compiled) refCompileReplicas() {
	c.OpInstStart = make([]int32, len(c.OpNames)+1)
	for _, in := range c.Insts {
		c.OpInstStart[in.Op+1]++
	}
	for op := range c.OpNames {
		c.OpInstStart[op+1] += c.OpInstStart[op]
	}
	c.OpInsts = make([]int32, len(c.Insts))
	fill := append([]int32(nil), c.OpInstStart[:len(c.OpNames)]...)
	for i, in := range c.Insts {
		c.OpInsts[fill[in.Op]] = int32(i)
		fill[in.Op]++
	}
	for op := range c.OpNames {
		reps := c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]]
		sort.Slice(reps, func(i, j int) bool {
			a, b := &c.Insts[reps[i]], &c.Insts[reps[j]]
			if a.Replica != b.Replica {
				return a.Replica < b.Replica
			}
			return c.ProcNames[a.Proc] < c.ProcNames[b.Proc]
		})
	}
}

// refCompileDeliveries flattens s.Deliveries and sorts every link's active hops
// into its static communication order (SendsBefore).
func (c *Compiled) refCompileDeliveries(s *Schedule, a *arch.Architecture, procID, opID map[string]int32, edgeID map[graph.EdgeKey]int32) error {
	type staticHop struct {
		entry QueueEntry
		slot  *CommSlot
	}
	nP := len(c.ProcNames)
	linkID := refIntern(c.LinkNames)
	perLink := make([][]staticHop, len(c.LinkNames))
	for _, d := range s.Deliveries() {
		di := int32(len(c.Deliveries))
		eid, ok := edgeID[d.Edge]
		if !ok {
			return fmt.Errorf("sched: delivery of %s is not a graph edge", d.Edge)
		}
		srcOp := opID[d.Edge.Src]
		dl := DenseDelivery{Edge: eid, DstOp: opID[d.Edge.Dst], Chain: d.Chain, SendLo: int32(len(c.Senders))}
		for _, sd := range d.Senders {
			pid, ok := procID[sd.Proc]
			if !ok {
				return fmt.Errorf("sched: sender on unknown processor %q", sd.Proc)
			}
			si := int32(len(c.Senders))
			cs := DenseSender{
				Delivery: di,
				Proc:     pid,
				Rank:     int32(sd.Rank),
				SrcOp:    srcOp,
				SrcInst:  c.InstAt[int(srcOp)*nP+int(pid)],
				Deadline: sd.Deadline,
				Passive:  sd.Passive,
				HopLo:    int32(len(c.Hops)),
			}
			for i, h := range sd.Hops {
				lid, ok := linkID[h.Link]
				if !ok {
					return fmt.Errorf("sched: hop over unknown link %q", h.Link)
				}
				fid, ok := procID[h.From]
				if !ok {
					return fmt.Errorf("sched: hop from unknown processor %q", h.From)
				}
				c.Hops = append(c.Hops, Hop{Link: lid, From: fid, Dur: h.Duration()})
				if !h.Passive {
					perLink[lid] = append(perLink[lid], staticHop{
						entry: QueueEntry{Sender: si, Hop: int32(i)},
						slot:  h,
					})
				}
			}
			cs.HopHi = int32(len(c.Hops))
			c.Senders = append(c.Senders, cs)
		}
		dl.SendHi = int32(len(c.Senders))
		dl.RcvLo = int32(len(c.Receivers))
		// A broadcast's bus is known: its hops passed the link check above.
		for _, p := range d.Receivers(a) {
			pid, ok := procID[p]
			if !ok {
				return fmt.Errorf("sched: delivery to unknown processor %q", p)
			}
			c.Receivers = append(c.Receivers, pid)
		}
		dl.RcvHi = int32(len(c.Receivers))
		c.Deliveries = append(c.Deliveries, dl)
	}
	c.QueueStart = make([]int32, len(c.LinkNames)+1)
	for lid, hops := range perLink {
		c.QueueStart[lid] = int32(len(c.Queue))
		sort.SliceStable(hops, func(i, j int) bool { return SendsBefore(hops[i].slot, hops[j].slot) })
		for _, h := range hops {
			c.Queue = append(c.Queue, h.entry)
			c.QueueDates = append(c.QueueDates, h.slot.Start)
		}
	}
	c.QueueStart[len(c.LinkNames)] = int32(len(c.Queue))
	return nil
}
