package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

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
// The ID spaces are the problem's own, those of the graph's ID form
// (graph.IDs) and of the architecture:
//
//	proc:  index into ProcNames (architecture declaration order, arch.ProcID)
//	link:  index into LinkNames (architecture declaration order, arch.LinkID)
//	op:    index into OpNames   (graph declaration order, graph.OpID)
//	edge:  index into Edges     (graph edge order, graph.EdgeID)
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
	// static sequence order, and Exec[i] is instance i's WCET.
	// InstAt[op*len(ProcNames)+proc] is the instance of op on proc, or -1.
	SeqStart []int32
	Insts    []Inst
	Exec     []float64
	InstAt   []int32

	// The strict inputs of instance i are Preds[PredStart[i]:PredStart[i+1]],
	// in the order of its operation's graph.IDs Preds.
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

	// Outputs are the operations a complete iteration must produce, the
	// graph.IDs Outputs.
	Outputs []int32
}

// Inst is one scheduled operation replica.
type Inst struct {
	Op, Proc   int32
	Replica    int
	Start, End float64
}

// Pred is one strict input of an instance: the producing operation and the
// dependency edge carrying its value.
type Pred = graph.Arc

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

// Compile interns and flattens s into a Compiled form in one pass over its
// processor and link slots. The graph, architecture and constraints must be
// the ones the schedule was produced from; names they do not know and
// placements without a WCET are reported as errors, the first one found.
//
// The result is rebuilt on every call: a Schedule, graph, architecture and
// spec are all mutable, so a memoized form could go stale.
func Compile(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*Compiled, error) {
	p := index(s, g, a, sp)
	if err := p.flatten(); err != nil {
		return nil, err
	}
	return p.c, nil
}

// CompileValid validates s as Validate does and, when it is well-formed,
// compiles it from the same pass: one walk over the slots instead of a
// validation and a compilation. A validation failure is an *InvalidError;
// any other error is Compile's.
func CompileValid(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (*Compiled, error) {
	p := index(s, g, a, sp)
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := p.flatten(); err != nil {
		return nil, err
	}
	return p.c, nil
}

// pass is one walk over a schedule's slots with every name interned: the
// instances in Compiled order, the comm slots grouped into transfers, and
// each declared link's active hops in static order. Compile flattens it and
// Validate checks it.
//
// Names the problem does not declare still get IDs, after the declared
// ones, so a malformed schedule is indexed in full: Validate reports every
// violation, Compile the first. The processors and operations of op slots
// are appended to c.ProcNames and c.OpNames (and mapped by procX and opX);
// undeclared links get IDs from nL on, in name order. Any of them makes
// Compile fail, so a returned Compiled only holds declared names.
type pass struct {
	s  *Schedule
	g  *graph.Graph
	a  *arch.Architecture
	sp *spec.Spec
	c  *Compiled

	// The graph and the constraints by the problem's IDs, which are the IDs
	// of the declared names (graph.OpID, graph.EdgeID, arch.ProcID,
	// arch.LinkID).
	ids  *graph.IDs
	view *spec.View

	// The declared processor, operation, link and edge counts.
	nP, nO, nL, nE int32
	procX, opX     map[string]int32
	linkX          []string // undeclared link names, by ID - nL

	// The endpoints of declared link l are ends[endStart[l]:endStart[l+1]];
	// attached[l*nP+p] reports whether l attaches processor p.
	endStart, ends []int32
	attached       []bool

	// Per instance: its slot (c.Exec holds its WCET, +Inf when forbidden,
	// or when the processor or operation is undeclared).
	slots []*OpSlot
	// dupes reports two slots of one operation on one processor.
	dupes bool

	// recs holds the comm slots by link name, each link in LinkSlots order.
	// Transfer t is recs[xfer[xferStart[t]:xferStart[t+1]]], its hops by
	// index: transfers by ID, ties by position in recs, as Transfers.
	recs      []commRec
	xfer      []int32
	xferStart []int32
	// The active hops of declared link l, in static communication order,
	// are recs[queue[queueStart[l]:queueStart[l+1]]].
	queue      []int32
	queueStart []int32

	err error // the first error Compile reports
}

// commRec is one comm slot with its names interned: link is the link's ID
// (from nL on if undeclared), edge is -1 for a pair that is not a graph
// edge, and from, to, src and dst (From, To, SrcProc and DstProc) are -1
// for a processor neither the architecture nor an op slot names.
type commRec struct {
	slot                           *CommSlot
	link, edge, from, to, src, dst int32
}

// index walks s once and interns everything Compile and Validate read.
func index(s *Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec) *pass {
	c := &Compiled{
		Mode:      s.Mode,
		ProcNames: a.ProcessorNames(),
		LinkNames: a.LinkNames(),
		OpNames:   g.OpNames(),
	}
	p := &pass{
		s: s, g: g, a: a, sp: sp, c: c,
		ids:  g.IDs(),
		view: sp.View(g, a),
		nP:   int32(len(c.ProcNames)),
		nO:   int32(len(c.OpNames)),
		nL:   int32(len(c.LinkNames)),
	}
	p.indexGraph()
	p.indexArch()
	p.indexInsts()
	p.indexComms()
	return p
}

// fail records err as Compile's error unless an earlier one is recorded.
func (p *pass) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *pass) indexGraph() {
	edges := p.g.Edges()
	p.nE = int32(len(edges))
	if len(edges) > 0 {
		p.c.Edges = make([]graph.EdgeKey, len(edges))
	}
	for i, e := range edges {
		p.c.Edges[i] = e.Key()
	}
}

// procOf returns the ID of a declared or op-slot processor, or -1.
func (p *pass) procOf(name string) int32 {
	if id := p.a.ProcID(name); id >= 0 {
		return id
	}
	if id, ok := p.procX[name]; ok {
		return id
	}
	return -1
}

// producer returns the instance of r's edge source on r's source
// processor, or -1.
func (p *pass) producer(r *commRec) int32 {
	if r.src < 0 {
		return -1
	}
	op := int32(-1)
	if r.edge >= 0 {
		op = p.ids.Src[r.edge]
	} else if id := p.g.OpID(r.slot.Edge.Src); id >= 0 {
		op = id
	} else if id, ok := p.opX[r.slot.Edge.Src]; ok {
		op = id
	}
	if op < 0 {
		return -1
	}
	return p.c.InstAt[int(op)*len(p.c.ProcNames)+int(r.src)]
}

func (p *pass) indexArch() {
	p.endStart = make([]int32, p.nL+1)
	p.attached = make([]bool, int(p.nL)*int(p.nP))
	for l, name := range p.c.LinkNames {
		for _, e := range p.a.Link(name).Endpoints() {
			if pid := p.a.ProcID(e); pid >= 0 {
				p.ends = append(p.ends, pid)
				p.attached[l*int(p.nP)+int(pid)] = true
			}
		}
		p.endStart[l+1] = int32(len(p.ends))
	}
}

// attaches reports whether declared link l attaches processor proc.
func (p *pass) attaches(l, proc int32) bool {
	return proc >= 0 && proc < p.nP && p.attached[l*p.nP+proc]
}

// indexInsts interns the op slots: declared processors in declaration
// order, then undeclared ones in name order, each in ProcSlots order. Only
// the declared processors' slots can fail Compile past an undeclared
// processor, as in a walk that stops at the first error.
func (p *pass) indexInsts() {
	c := p.c
	for _, name := range p.s.Procs() {
		if p.a.ProcID(name) < 0 {
			if p.procX == nil {
				p.procX = make(map[string]int32)
			}
			p.procX[name] = int32(len(c.ProcNames))
			c.ProcNames = append(c.ProcNames, name)
			p.fail("sched: schedule uses unknown processor %q", name)
		}
	}
	n := p.s.NumOpSlots()
	if n > 0 {
		c.Insts = make([]Inst, 0, n)
		c.Exec = make([]float64, 0, n)
	}
	p.slots = make([]*OpSlot, 0, n)
	c.PredStart = make([]int32, 0, n+1)
	c.SeqStart = make([]int32, len(c.ProcNames)+1)
	for pid, name := range c.ProcNames {
		c.SeqStart[pid] = int32(len(c.Insts))
		if len(p.s.procs[name]) == 0 {
			continue
		}
		declared := int32(pid) < p.nP
		for _, sl := range p.s.ProcSlots(name) {
			op := p.g.OpID(sl.Op)
			if op < 0 {
				op = p.undeclaredOp(sl.Op)
				if declared {
					p.fail("sched: schedule places unknown operation %q", sl.Op)
				}
			}
			d := math.Inf(1)
			c.PredStart = append(c.PredStart, int32(len(c.Preds)))
			if op < p.nO {
				if declared {
					if d = p.view.Exec(op, int32(pid)); math.IsInf(d, 1) {
						p.fail("sched: operation %q has no WCET on processor %q", sl.Op, name)
					}
				}
				c.Preds = append(c.Preds, p.ids.Preds(op)...)
			}
			c.Insts = append(c.Insts, Inst{Op: op, Proc: int32(pid), Replica: sl.Replica, Start: sl.Start, End: sl.End})
			p.slots = append(p.slots, sl)
			c.Exec = append(c.Exec, d)
		}
	}
	c.SeqStart[len(c.ProcNames)] = int32(len(c.Insts))
	c.PredStart = append(c.PredStart, int32(len(c.Preds)))

	nP := len(c.ProcNames)
	c.InstAt = make([]int32, len(c.OpNames)*nP)
	for i := range c.InstAt {
		c.InstAt[i] = -1
	}
	for i, in := range c.Insts {
		k := int(in.Op)*nP + int(in.Proc)
		if c.InstAt[k] >= 0 {
			p.dupes = true
		}
		c.InstAt[k] = int32(i)
	}
	c.compileReplicas()
}

// undeclaredOp interns an operation the graph does not declare.
func (p *pass) undeclaredOp(name string) int32 {
	if id, ok := p.opX[name]; ok {
		return id
	}
	if p.opX == nil {
		p.opX = make(map[string]int32)
	}
	id := int32(len(p.c.OpNames))
	p.opX[name] = id
	p.c.OpNames = append(p.c.OpNames, name)
	return id
}

// indexComms interns the comm slots, groups them into transfers and sorts
// each declared link's active hops into its static communication order
// (SendsBefore), stably from LinkSlots order.
func (p *pass) indexComms() {
	links := p.s.Links()
	n := 0
	for _, name := range links {
		n += len(p.s.links[name])
	}
	p.recs = make([]commRec, 0, n)
	span := make([]int32, 2*p.nL) // declared link l's recs are [span[2l], span[2l+1])
	for _, name := range links {
		lid := p.a.LinkID(name)
		declared := lid >= 0
		if !declared {
			lid = p.nL + int32(len(p.linkX))
			p.linkX = append(p.linkX, name)
		}
		lo := int32(len(p.recs))
		for _, sl := range p.s.LinkSlots(name) {
			r := commRec{slot: sl, link: lid, edge: p.g.EdgeID(sl.Edge), from: p.procOf(sl.From), to: p.procOf(sl.To)}
			// A first hop starts at its source and a final hop ends at its
			// destination.
			if r.src = r.from; sl.SrcProc != sl.From {
				r.src = p.procOf(sl.SrcProc)
			}
			if r.dst = r.to; sl.DstProc != sl.To {
				r.dst = p.procOf(sl.DstProc)
			}
			p.recs = append(p.recs, r)
		}
		if declared {
			span[2*lid], span[2*lid+1] = lo, int32(len(p.recs))
		}
	}

	p.groupTransfers()
	for i, r := range p.xfer {
		if i == 0 || p.recs[r].slot.TransferID != p.recs[p.xfer[i-1]].slot.TransferID {
			p.xferStart = append(p.xferStart, int32(i))
		}
	}
	p.xferStart = append(p.xferStart, int32(len(p.xfer)))

	p.queueStart = make([]int32, p.nL+1)
	for l := int32(0); l < p.nL; l++ {
		p.queueStart[l] = int32(len(p.queue))
		for r := span[2*l]; r < span[2*l+1]; r++ {
			if !p.recs[r].slot.Passive {
				p.queue = append(p.queue, r)
			}
		}
		q := p.queue[p.queueStart[l]:]
		sort.SliceStable(q, func(i, j int) bool { return SendsBefore(p.recs[q[i]].slot, p.recs[q[j]].slot) })
	}
	p.queueStart[p.nL] = int32(len(p.queue))
}

// groupTransfers orders the recs by transfer ID, then hop, ties by
// position.
func (p *pass) groupTransfers() {
	p.xfer = make([]int32, len(p.recs))
	for i := range p.xfer {
		p.xfer[i] = int32(i)
	}
	slices.SortFunc(p.xfer, func(a, b int32) int {
		x, y := p.recs[a].slot, p.recs[b].slot
		if x.TransferID != y.TransferID {
			return cmp.Compare(x.TransferID, y.TransferID)
		}
		if x.Hop != y.Hop {
			return cmp.Compare(x.Hop, y.Hop)
		}
		return cmp.Compare(a, b)
	})
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
	// slices.SortFunc runs sort.Slice's algorithm, so ties (only possible
	// in malformed schedules) land where Replicas-ordered callers saw them.
	byRank := func(i, j int32) int {
		a, b := &c.Insts[i], &c.Insts[j]
		if a.Replica != b.Replica {
			return cmp.Compare(a.Replica, b.Replica)
		}
		return strings.Compare(c.ProcNames[a.Proc], c.ProcNames[b.Proc])
	}
	for op := range c.OpNames {
		slices.SortFunc(c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]], byRank)
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

// flatten builds the deliveries, senders, hops and link queues from the
// pass, or returns the first error in the order of a walk over the
// processors, then the deliveries.
//
// Deliveries group transfers by edge and destination (by edge and bus for a
// broadcast) in order of first appearance by transfer ID, their senders
// sorted stably by rank: the order of Schedule.Deliveries.
func (p *pass) flatten() error {
	if p.err != nil {
		return p.err
	}
	c := p.c
	type key struct{ edge, bus, dst int32 }
	nT := len(p.xferStart) - 1
	hops := func(t int32) []int32 { return p.xfer[p.xferStart[t]:p.xferStart[t+1]] }
	first := func(t int32) *CommSlot { return p.recs[p.xfer[p.xferStart[t]]].slot }
	last := func(t int32) *CommSlot { return p.recs[p.xfer[p.xferStart[t+1]-1]].slot }

	// Undeclared edges and destinations get keys of their own, so a
	// malformed delivery groups as its names do.
	var edgeX map[graph.EdgeKey]int32
	var dstX map[string]int32
	head := make([]int32, p.nE) // latest delivery of each edge, chained by next
	for i := range head {
		head[i] = -1
	}
	var keys []key
	var next, firstOf []int32
	deliv := make([]int32, nT)
	for t := int32(0); t < int32(nT); t++ {
		f := &p.recs[p.xfer[p.xferStart[t]]]
		k := key{edge: f.edge, bus: -1, dst: -1}
		if k.edge < 0 {
			id, ok := edgeX[f.slot.Edge]
			if !ok {
				if edgeX == nil {
					edgeX = make(map[graph.EdgeKey]int32)
				}
				id = int32(len(head))
				edgeX[f.slot.Edge] = id
				head = append(head, -1)
			}
			k.edge = id
		}
		if f.slot.Broadcast {
			k.bus = f.link
		} else {
			dst := last(t).DstProc
			if k.dst = p.recs[p.xfer[p.xferStart[t+1]-1]].dst; k.dst < 0 {
				id, ok := dstX[dst]
				if !ok {
					if dstX == nil {
						dstX = make(map[string]int32)
					}
					id = p.nP + int32(len(dstX))
					dstX[dst] = id
				}
				k.dst = id
			}
		}
		d := head[k.edge]
		for d >= 0 && keys[d] != k {
			d = next[d]
		}
		if d < 0 {
			d = int32(len(keys))
			keys = append(keys, k)
			firstOf = append(firstOf, t)
			next = append(next, head[k.edge])
			head[k.edge] = d
		}
		deliv[t] = d
	}

	// Each delivery's transfers, in transfer order, then stably by rank.
	sendStart := make([]int32, len(keys)+1)
	for _, d := range deliv {
		sendStart[d+1]++
	}
	for d := range keys {
		sendStart[d+1] += sendStart[d]
	}
	order := make([]int32, nT)
	fill := append([]int32(nil), sendStart[:len(keys)]...)
	for t, d := range deliv {
		order[fill[d]] = int32(t)
		fill[d]++
	}
	for d := range keys {
		seg := order[sendStart[d]:sendStart[d+1]]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && first(seg[j]).SenderRank < first(seg[j-1]).SenderRank; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}

	nP := int(p.nP)
	recSender := make([]int32, len(p.recs))
	recHop := make([]int32, len(p.recs))
	if len(keys) > 0 {
		nRcv := 0
		for _, k := range keys {
			if k.bus >= 0 && k.bus < p.nL {
				nRcv += int(p.endStart[k.bus+1] - p.endStart[k.bus])
			} else {
				nRcv++
			}
		}
		c.Deliveries = make([]DenseDelivery, 0, len(keys))
		c.Senders = make([]DenseSender, 0, nT)
		c.Hops = make([]Hop, 0, len(p.recs))
		c.Receivers = make([]int32, 0, nRcv)
	}
	for d, k := range keys {
		if k.edge >= p.nE {
			return fmt.Errorf("sched: delivery of %s is not a graph edge", first(firstOf[d]).Edge)
		}
		srcOp := p.ids.Src[k.edge]
		dl := DenseDelivery{Edge: k.edge, DstOp: p.ids.Dst[k.edge], Chain: c.Mode == ModeFT1, SendLo: int32(len(c.Senders))}
		for _, t := range order[sendStart[d]:sendStart[d+1]] {
			f := first(t)
			pid := p.recs[p.xfer[p.xferStart[t]]].src
			if pid < 0 {
				return fmt.Errorf("sched: sender on unknown processor %q", f.SrcProc)
			}
			si := int32(len(c.Senders))
			cs := DenseSender{
				Delivery: int32(d),
				Proc:     pid,
				Rank:     int32(f.SenderRank),
				SrcOp:    srcOp,
				SrcInst:  c.InstAt[int(srcOp)*nP+int(pid)],
				Deadline: math.Inf(1),
				Passive:  f.Passive,
				HopLo:    int32(len(c.Hops)),
			}
			if c.Mode == ModeFT1 {
				// The statically computed worst-case arrival of the transfer
				// is the detection deadline the receivers wait for (Section
				// 6.1).
				cs.Deadline = last(t).End
			}
			for i, r := range hops(t) {
				h := &p.recs[r]
				if h.link >= p.nL {
					return fmt.Errorf("sched: hop over unknown link %q", h.slot.Link)
				}
				if h.from < 0 {
					return fmt.Errorf("sched: hop from unknown processor %q", h.slot.From)
				}
				c.Hops = append(c.Hops, Hop{Link: h.link, From: h.from, Dur: h.slot.Duration()})
				recSender[r], recHop[r] = si, int32(i)
			}
			cs.HopHi = int32(len(c.Hops))
			c.Senders = append(c.Senders, cs)
		}
		dl.SendHi = int32(len(c.Senders))
		dl.RcvLo = int32(len(c.Receivers))
		switch {
		case k.bus >= 0:
			// A broadcast's bus is known: its hops passed the link check.
			c.Receivers = append(c.Receivers, p.ends[p.endStart[k.bus]:p.endStart[k.bus+1]]...)
		case k.dst < p.nP:
			c.Receivers = append(c.Receivers, k.dst)
		default:
			return fmt.Errorf("sched: delivery to unknown processor %q", last(firstOf[d]).DstProc)
		}
		dl.RcvHi = int32(len(c.Receivers))
		c.Deliveries = append(c.Deliveries, dl)
	}

	c.QueueStart = p.queueStart
	if len(p.queue) > 0 {
		c.Queue = make([]QueueEntry, len(p.queue))
		c.QueueDates = make([]float64, len(p.queue))
	}
	for i, r := range p.queue {
		c.Queue[i] = QueueEntry{Sender: recSender[r], Hop: recHop[r]}
		c.QueueDates[i] = p.recs[r].slot.Start
	}
	c.Outputs = p.ids.Outputs
	return nil
}
