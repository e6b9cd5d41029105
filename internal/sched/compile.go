package sched

import (
	"fmt"
	"math"
	"sort"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// Compiled is the dense, immutable form of one static schedule: every name
// is interned to an int32 ID and every structure the certifier and the
// simulator walk — per-processor operation sequences, strict inputs,
// deliveries with their senders and route hops, and per-link static
// communication orders — is flattened into prefix-indexed arrays. It is
// read-only after Compile and safe to share across goroutines.
//
// The ID spaces follow the scheduler core's convention:
//
//	proc:  index into ProcNames (architecture declaration order)
//	link:  index into LinkNames (architecture declaration order)
//	op:    index into OpNames   (graph declaration order)
//	edge:  index into Edges     (graph edge order)
//	inst:  per processor ID, the processor's slots in ProcSlots order
//	deliv, sender, hop: Schedule.Deliveries order
//	queue: per link ID, the active hops in static communication order
type Compiled struct {
	Mode      Mode
	ProcNames []string
	LinkNames []string
	OpNames   []string
	Edges     []graph.EdgeKey

	// Instances of processor p are Insts[SeqStart[p]:SeqStart[p+1]], in
	// static sequence order. InstAt[op*len(ProcNames)+proc] is the
	// instance of op on proc, or -1.
	SeqStart []int32
	Insts    []Inst
	InstAt   []int32

	// The strict inputs of instance i are Preds[PredStart[i]:PredStart[i+1]],
	// in graph.StrictPreds order.
	PredStart []int32
	Preds     []Pred

	// The replicas of op are OpInsts[OpInstStart[op]:OpInstStart[op+1]], in
	// Schedule.Replicas order.
	OpInstStart []int32
	OpInsts     []int32

	Deliveries []DenseDelivery
	Senders    []DenseSender
	Hops       []Hop
	Receivers  []int32

	// Link l executes Queue[QueueStart[l]:QueueStart[l+1]] in order.
	// QueueDates[h] is the static start date of queue entry h.
	QueueStart []int32
	Queue      []QueueEntry
	QueueDates []float64

	// Outputs are the external outputs (the graph's sinks for headless
	// workloads), the operations a complete iteration must produce.
	Outputs []int32

	procID map[string]int32
	linkID map[string]int32
}

// Inst is one scheduled operation replica.
type Inst struct {
	Op, Proc   int32
	Replica    int
	Start, End float64
}

// Pred is one strict input of an instance: the producing operation and the
// dependency edge carrying its value.
type Pred struct {
	Op, Edge int32
}

// DenseDelivery is one compiled Delivery: its senders are
// Senders[SendLo:SendHi] in rank order, and the processors observing its
// arrivals are Receivers[RcvLo:RcvHi].
type DenseDelivery struct {
	Edge           int32
	DstOp          int32 // the consuming operation, the edge's destination
	Chain          bool
	SendLo, SendHi int32
	RcvLo, RcvHi   int32
}

// DenseSender is one compiled Sender: its route is Hops[HopLo:HopHi].
type DenseSender struct {
	Deadline float64
	Delivery int32
	Proc     int32
	Rank     int32
	SrcOp    int32
	SrcInst  int32 // instance of SrcOp on Proc, or -1
	HopLo    int32
	HopHi    int32
	Passive  bool
}

// Hop is one link traversal of a sender's route.
type Hop struct {
	Link int32
	From int32 // forwarding processor
	Dur  float64
}

// QueueEntry is one active hop in a link's static communication order.
type QueueEntry struct {
	Sender int32
	Hop    int32 // hop ordinal within the sender's route
}

// Compile interns and flattens s into a Compiled form. The graph,
// architecture and constraints must be the ones the schedule was produced
// from; names they do not know and placements without a WCET are reported
// as errors.
func Compile(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*Compiled, error) {
	c := &Compiled{
		Mode:      s.Mode,
		ProcNames: a.ProcessorNames(),
		LinkNames: a.LinkNames(),
		OpNames:   g.OpNames(),
	}
	c.procID = intern(c.ProcNames)
	c.linkID = intern(c.LinkNames)
	opID := intern(c.OpNames)
	edgeID := make(map[graph.EdgeKey]int32, g.NumEdges())
	for _, e := range g.Edges() {
		edgeID[e.Key()] = int32(len(c.Edges))
		c.Edges = append(c.Edges, e.Key())
	}
	nP := len(c.ProcNames)

	for _, p := range s.Procs() {
		if _, ok := c.procID[p]; !ok {
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
			if math.IsInf(sp.Exec(sl.Op, p), 1) {
				return nil, fmt.Errorf("sched: operation %q has no WCET on processor %q", sl.Op, p)
			}
			c.InstAt[int(oid)*nP+pid] = int32(len(c.Insts))
			c.PredStart = append(c.PredStart, int32(len(c.Preds)))
			for _, pred := range g.StrictPreds(sl.Op) {
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
	c.compileReplicas()
	if err := c.compileDeliveries(s, a, opID, edgeID); err != nil {
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

// intern maps each name to its index.
func intern(names []string) map[string]int32 {
	id := make(map[string]int32, len(names))
	for i, n := range names {
		id[n] = int32(i)
	}
	return id
}

// compileReplicas groups the instances by operation, ranked like Replicas.
func (c *Compiled) compileReplicas() {
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

// SendsBefore reports whether active hop a precedes hop b in their link's
// static communication order, the order the executive sends them in: by
// start date (within 1e-9), then a zero-length hop ahead of a longer one
// starting with it, then by transfer ID and hop index. The scheduler never
// places a zero-length hop inside a busy window, only at one's edge, so
// this order replays every static date; checkLinkSequencing holds a
// schedule to it.
func SendsBefore(a, b *CommSlot) bool {
	if math.Abs(a.Start-b.Start) > 1e-9 {
		return a.Start < b.Start
	}
	if math.Abs(a.End-b.End) > 1e-9 {
		return a.End < b.End
	}
	if a.TransferID != b.TransferID {
		return a.TransferID < b.TransferID
	}
	return a.Hop < b.Hop
}

// compileDeliveries flattens s.Deliveries and sorts every link's active hops
// into its static communication order (SendsBefore).
func (c *Compiled) compileDeliveries(s *Schedule, a *arch.Architecture, opID map[string]int32, edgeID map[graph.EdgeKey]int32) error {
	type staticHop struct {
		entry QueueEntry
		slot  *CommSlot
	}
	nP := len(c.ProcNames)
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
			pid, ok := c.procID[sd.Proc]
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
				lid, ok := c.linkID[h.Link]
				if !ok {
					return fmt.Errorf("sched: hop over unknown link %q", h.Link)
				}
				fid, ok := c.procID[h.From]
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
			pid, ok := c.procID[p]
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

// ProcID returns the ID of the named processor.
func (c *Compiled) ProcID(name string) (int32, bool) {
	id, ok := c.procID[name]
	return id, ok
}

// LinkID returns the ID of the named link.
func (c *Compiled) LinkID(name string) (int32, bool) {
	id, ok := c.linkID[name]
	return id, ok
}
