package sim

import (
	"math"
	"sort"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// simInstruments holds the simulator's pre-resolved counters; the zero value
// is the disabled state.
type simInstruments struct {
	faults    *obs.Counter // failure activations injected by the scenario
	delivered *obs.Counter // transfers whose final hop arrived
	lost      *obs.Counter // transfers lost to a mid-frame sender silence
	missed    *obs.Counter // receptions missed by a silent receiver
	timeouts  *obs.Counter // FT1 failover timeouts that expired
	falseDet  *obs.Counter // detection mistakes (sender alive but late)
	failovers *obs.Counter // passive backup transfers activated
	opsExec   *obs.Counter // operation replicas executed
	opsCancel *obs.Counter // operation replicas cancelled by failures
}

// resolve registers the simulator's counters on the sink (no-op when nil).
func (in *simInstruments) resolve(s *obs.Sink) {
	if s == nil {
		return
	}
	in.faults = s.Counter("sim.faults.activated")
	in.delivered = s.Counter("sim.messages.delivered")
	in.lost = s.Counter("sim.messages.lost")
	in.missed = s.Counter("sim.receptions.missed")
	in.timeouts = s.Counter("sim.timeouts.fired")
	in.falseDet = s.Counter("sim.detections.false")
	in.failovers = s.Counter("sim.failovers")
	in.opsExec = s.Counter("sim.ops.executed")
	in.opsCancel = s.Counter("sim.ops.cancelled")
}

// accumulate folds one finished iteration's tallies into the counters.
func (in *simInstruments) accumulate(e *engine) {
	in.delivered.Add(int64(e.messages))
	in.lost.Add(int64(e.lost))
	in.missed.Add(int64(e.missed))
	in.timeouts.Add(int64(e.timeouts))
	in.falseDet.Add(int64(e.falseDet))
	in.failovers.Add(int64(e.failovers))
	in.opsExec.Add(int64(e.opsExec))
	in.opsCancel.Add(int64(e.opsCancel))
}

const eps = 1e-9

// opState tracks one operation replica instance through an iteration.
type opState int

const (
	opPending opState = iota
	opDone
	opCancelled // processor dead, or killed mid-execution
)

// opInst is one operation replica in the per-processor static sequence.
type opInst struct {
	slot  *sched.OpSlot
	state opState
	done  float64
}

// opProcKey addresses an executed replica.
type opProcKey struct {
	op, proc string
}

// edgeProcKey addresses the availability of an edge's value on a processor.
type edgeProcKey struct {
	edge graph.EdgeKey
	proc string
}

// sendState tracks one sender's transfer.
type sendState int

const (
	sendUnknown sendState = iota
	sendActive            // hops partially executed
	sendDone
	sendNever // sender dead, message lost, or failover preempted
)

// hop is one link traversal of a transfer.
type hop struct {
	link     string
	from, to string
	dur      float64
}

// sender is one replica's transfer within a delivery group.
type sender struct {
	rank     int
	proc     string
	srcOp    string // producing operation (the group edge's source)
	hops     []hop
	deadline float64 // static worst-case arrival (FT1); +Inf otherwise
	passive  bool    // FT1 backup reservation, activated by failover
	skipped  bool    // sender already marked faulty at iteration start

	state   sendState
	hopDone int     // number of hops completed
	hopTime float64 // completion date of the last executed hop
	arrival float64 // final arrival date when state == sendDone
}

// group is one delivery: all senders able to provide one edge's value to one
// destination (a processor, or every processor on a bus for broadcasts).
type group struct {
	edge      graph.EdgeKey
	broadcast bool
	link      string // broadcast bus
	dst       string // destination processor for point-to-point groups
	chain     bool   // FT1 failover semantics
	senders   []*sender

	settled  bool // no further failover can fire (fast path for nextAction)
	rcvCache []string
}

// receivers returns the processors that observe this group's arrivals.
func (g *group) receivers(a *arch.Architecture) []string {
	if g.rcvCache != nil {
		return g.rcvCache
	}
	if g.broadcast {
		g.rcvCache = a.Link(g.link).Endpoints()
	} else {
		g.rcvCache = []string{g.dst}
	}
	return g.rcvCache
}

// queueEntry is one active hop in a link's static communication order. The
// communication units execute their comms in this total order (Section 4.4);
// entries whose sender is known to never transmit are skipped.
type queueEntry struct {
	gr  *group
	sd  *sender
	hop int
}

// engine simulates one iteration.
type engine struct {
	s   *sched.Schedule
	g   *graph.Graph
	ids *graph.IDs
	ops []string // the graph's operation names, by op ID
	a   *arch.Architecture
	sp  *spec.Spec
	st  *simState
	it  int

	seq      map[string][]*opInst
	insts    map[opProcKey]*opInst
	seqIdx   map[string]int
	seqReady map[string]float64
	seqDead  map[string]bool

	opDone    map[opProcKey]float64
	commAvail map[edgeProcKey]float64
	linkFree  map[string]float64
	groups    []*group
	queues    map[string][]*queueEntry
	queueIdx  map[string]int

	messages     int
	lost         int
	missed       int
	timeouts     int
	falseDet     int
	failovers    int
	opsExec      int
	opsCancel    int
	lastActivity float64

	trace  bool
	events []Event

	// resolveDirty triggers the sender-resolution sweep: set when a
	// processor dies or an operation instance is cancelled.
	resolveDirty bool
}

// record appends a trace event when tracing is enabled.
func (e *engine) record(kind EventKind, what, where string, start, end float64) {
	if !e.trace {
		return
	}
	e.events = append(e.events, Event{Kind: kind, What: what, Where: where, Start: start, End: end})
}

func newEngine(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, st *simState, it int) *engine {
	e := &engine{
		s: s, g: g, ids: g.IDs(), ops: g.OpNames(), a: a, sp: sp, st: st, it: it,
		seq:       make(map[string][]*opInst),
		seqIdx:    make(map[string]int),
		seqReady:  make(map[string]float64),
		seqDead:   make(map[string]bool),
		opDone:    make(map[opProcKey]float64),
		commAvail: make(map[edgeProcKey]float64),
		linkFree:  make(map[string]float64),
		queueIdx:  make(map[string]int),
	}
	e.insts = make(map[opProcKey]*opInst, s.NumOpSlots())
	for _, p := range s.Procs() {
		slots := s.ProcSlots(p)
		insts := make([]*opInst, 0, len(slots))
		for _, sl := range slots {
			inst := &opInst{slot: sl}
			insts = append(insts, inst)
			e.insts[opProcKey{op: sl.Op, proc: p}] = inst
		}
		e.seq[p] = insts
	}
	e.buildGroups()
	e.resolveDirty = true
	return e
}

// buildGroups assembles delivery groups from the schedule's exported
// delivery structure (sched.Deliveries, shared with the static certifier)
// and the per-link static execution order of the active hops.
func (e *engine) buildGroups() {
	type staticHop struct {
		entry *queueEntry
		slot  *sched.CommSlot
	}
	perLink := map[string][]staticHop{}
	for _, d := range e.s.Deliveries() {
		gr := &group{
			edge:      d.Edge,
			broadcast: d.Broadcast,
			link:      d.Link,
			dst:       d.Dst,
			chain:     d.Chain,
		}
		for _, dsd := range d.Senders {
			sd := &sender{
				rank:     dsd.Rank,
				proc:     dsd.Proc,
				srcOp:    d.Edge.Src,
				deadline: dsd.Deadline, // FT1: static worst-case arrival = detection date
				passive:  dsd.Passive,
				skipped:  e.st.detected[dsd.Proc],
			}
			for i, h := range dsd.Hops {
				to := h.To
				if to == "" {
					to = h.From // broadcast: receivers resolved via the bus
				}
				sd.hops = append(sd.hops, hop{link: h.Link, from: h.From, to: to, dur: h.End - h.Start})
				if !h.Passive {
					perLink[h.Link] = append(perLink[h.Link], staticHop{
						entry: &queueEntry{gr: gr, sd: sd, hop: i},
						slot:  h,
					})
				}
			}
			gr.senders = append(gr.senders, sd)
		}
		e.groups = append(e.groups, gr)
	}
	e.queues = make(map[string][]*queueEntry, len(perLink))
	for link, hops := range perLink { //ftlint:order-insensitive each iteration sorts and stores only its own ranged key's queue
		sort.SliceStable(hops, func(i, j int) bool { return sched.SendsBefore(hops[i].slot, hops[j].slot) })
		q := make([]*queueEntry, len(hops))
		for i, h := range hops {
			q[i] = h.entry
		}
		e.queues[link] = q
	}
}

// run executes the iteration to quiescence and reports it.
func (e *engine) run() IterationResult {
	for { //ftlint:allow-nopoll bounded: every action consumes one pending op, hop, or failover of the finite schedule; Simulate polls Cancel between iterations
		e.resolve()
		kind, ref, idx, start := e.nextAction()
		if kind == actNone {
			// Quiescence: everything still pending is blocked forever
			// (missing inputs). Resolving those blocks can release failover
			// chains, so try again after unblocking.
			if e.unblock() {
				continue
			}
			break
		}
		switch kind {
		case actOp:
			e.execOp(ref.(string))
		case actQueueHop:
			e.execQueueHop(ref.(string))
		case actFailover:
			e.execFailover(ref.(*group), idx, start)
		}
	}
	e.finalTimeoutSweep()
	return e.report()
}

// unblock runs at quiescence, when no regular action can execute. Two
// causes are distinguished:
//
//  1. A failure rerouted a dependency to a transfer queued *behind* a link
//     entry that transitively waits on it — a cyclic wait the strict static
//     order cannot resolve. The link arbiter grants the medium to whoever
//     can actually transmit, so the earliest-queued ready entry executes
//     out of order (this never triggers in failure-free runs, where the
//     static order is always serviceable).
//  2. Otherwise every pending operation is provably blocked forever:
//     operations of permanently silent processors are cancelled, and
//     transfers whose sender will never produce resolve to sendNever so the
//     timeout machinery (FT1) or alternate replicas (FT2) take over.
//
// Reports whether progress was made.
func (e *engine) unblock() bool {
	if en, ready, ok := e.nextSkipHop(); ok {
		e.execHop(en.gr, en.sd, ready)
		return true
	}
	progress := false
	for _, p := range e.s.Procs() {
		if e.seqDead[p] || e.seqIdx[p] >= len(e.seq[p]) {
			continue
		}
		if _, to, ok := e.st.silence(p, e.it); ok && math.IsInf(to, 1) {
			e.killProc(p)
			progress = true
		}
	}
	for _, gr := range e.groups {
		for _, sd := range gr.senders {
			if sd.state != sendUnknown {
				continue
			}
			inst := e.instOf(sd.srcOp, sd.proc)
			if inst != nil && inst.state == opPending {
				sd.state = sendNever
				progress = true
			}
		}
	}
	return progress
}

// nextSkipHop scans every link's static order beyond its blocked head for
// the earliest-queued executable entry, returning the one with the
// earliest possible start across links.
func (e *engine) nextSkipHop() (*queueEntry, float64, bool) {
	links := make([]string, 0, len(e.queues))
	for l := range e.queues {
		links = append(links, l)
	}
	sort.Strings(links)
	var (
		best      *queueEntry
		bestReady float64
		bestStart = math.Inf(1)
	)
	for _, l := range links {
		q := e.queues[l]
		for i := e.queueIdx[l]; i < len(q); i++ {
			en := q[i]
			if en.sd.state == sendNever || en.sd.state == sendDone || en.sd.hopDone > en.hop {
				continue
			}
			ready, ok := e.hopDataReady(en)
			if !ok {
				continue // blocked entry: look further down the order
			}
			start := math.Max(ready, e.linkFree[l])
			if start < bestStart-eps {
				best, bestReady, bestStart = en, ready, start
			}
			break // only the earliest-queued ready entry per link
		}
	}
	return best, bestReady, best != nil
}

type actionKind int

const (
	actNone actionKind = iota
	actOp
	actQueueHop
	actFailover
)

// resolve performs time-free state transitions until a fixed point: dead
// processors cancel their sequences, and transfers whose sender will never
// produce or transmit the value resolve to sendNever.
func (e *engine) resolve() {
	if !e.resolveDirty {
		return
	}
	e.resolveDirty = false
	for changed := true; changed; { //ftlint:allow-nopoll bounded: each round that reports a change kills a processor or resolves a sender, both finite and monotone
		changed = false
		for _, p := range e.s.Procs() {
			if e.seqDead[p] {
				continue
			}
			// Silent for the whole iteration (permanent failure from an
			// earlier iteration, or an outage spanning this one).
			if from, to, ok := e.st.silence(p, e.it); ok && from == 0 && math.IsInf(to, 1) {
				e.killProc(p)
				changed = true
			}
		}
		for _, gr := range e.groups {
			for _, sd := range gr.senders {
				if sd.state != sendUnknown {
					continue
				}
				inst := e.instOf(sd.srcOp, sd.proc)
				if inst == nil || inst.state == opCancelled {
					sd.state = sendNever
					changed = true
				}
			}
		}
	}
}

// instOf returns the instance of op on proc, or nil.
func (e *engine) instOf(op, proc string) *opInst {
	return e.insts[opProcKey{op: op, proc: proc}]
}

// killProc cancels every remaining operation of a dead processor.
func (e *engine) killProc(p string) {
	for i := e.seqIdx[p]; i < len(e.seq[p]); i++ {
		if e.seq[p][i].state == opPending {
			e.seq[p][i].state = opCancelled
			e.opsCancel++
		}
	}
	e.seqIdx[p] = len(e.seq[p])
	e.seqDead[p] = true
	e.resolveDirty = true
}

// nextAction scans processors, link queues, and failover chains for the
// executable action with the earliest start date.
func (e *engine) nextAction() (actionKind, any, int, float64) {
	bestKind := actNone
	bestStart := math.Inf(1)
	var bestRef any
	bestIdx := -1

	for _, p := range e.s.Procs() {
		if start, ok := e.nextOpStart(p); ok && start < bestStart-eps {
			bestKind, bestStart, bestRef, bestIdx = actOp, start, p, -1
		}
	}
	links := make([]string, 0, len(e.queues))
	for l := range e.queues {
		links = append(links, l)
	}
	sort.Strings(links)
	for _, l := range links {
		if start, ok := e.nextQueueHopStart(l); ok && start < bestStart-eps {
			bestKind, bestStart, bestRef, bestIdx = actQueueHop, start, l, -1
		}
	}
	for _, gr := range e.groups {
		if !gr.chain || gr.settled {
			continue
		}
		if idx, start, ok := e.nextFailover(gr); ok && start < bestStart-eps {
			bestKind, bestStart, bestRef, bestIdx = actFailover, start, gr, idx
		}
	}
	return bestKind, bestRef, bestIdx, bestStart
}

// nextOpStart returns the earliest start of proc's next pending operation,
// if its inputs are available.
func (e *engine) nextOpStart(p string) (float64, bool) {
	i := e.seqIdx[p]
	if i >= len(e.seq[p]) || e.seqDead[p] {
		return 0, false
	}
	inst := e.seq[p][i]
	start := e.seqReady[p]
	var preds []graph.Arc
	if o := e.g.OpID(inst.slot.Op); o >= 0 {
		preds = e.ids.Preds(o)
	}
	for _, pred := range preds {
		at, ok := e.inputAvail(graph.EdgeKey{Src: e.ops[pred.Op], Dst: inst.slot.Op}, p)
		if !ok {
			return 0, false
		}
		if at > start {
			start = at
		}
	}
	// A processor inside a bounded outage resumes its sequence when it
	// comes back (fail-silent intermittent failure).
	if from, to, ok := e.st.silence(p, e.it); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		start = to
	}
	return start, true
}

// inputAvail returns the earliest date edge's value is available on proc.
func (e *engine) inputAvail(edge graph.EdgeKey, proc string) (float64, bool) {
	best := math.Inf(1)
	if d, ok := e.opDone[opProcKey{op: edge.Src, proc: proc}]; ok {
		best = d
	}
	if d, ok := e.commAvail[edgeProcKey{edge: edge, proc: proc}]; ok && d < best {
		best = d
	}
	return best, !math.IsInf(best, 1)
}

// execOp runs the next operation of proc, honoring the fail-stop date or
// the fail-silent outage window.
func (e *engine) execOp(p string) {
	i := e.seqIdx[p]
	inst := e.seq[p][i]
	start, _ := e.nextOpStart(p)
	end := start + e.sp.Exec(inst.slot.Op, p) //ftlint:infwcet-checked inst.slot belongs to a validated schedule: CanRun holds for every committed op slot
	if from, to, ok := e.st.silence(p, e.it); ok {
		if math.IsInf(to, 1) {
			// Permanent crash: anything at or past the crash date — and
			// everything after it on this processor — is lost.
			if start >= from-eps || end > from+eps {
				e.killProc(p)
				return
			}
		} else if start < from && end > from+eps {
			// The operation is in flight when the outage begins: it is
			// lost, and the sequencer resumes after the recovery.
			inst.state = opCancelled
			e.opsCancel++
			e.seqIdx[p] = i + 1
			if to > e.seqReady[p] {
				e.seqReady[p] = to
			}
			return
		}
	}
	inst.state = opDone
	inst.done = end
	e.opsExec++
	e.opDone[opProcKey{op: inst.slot.Op, proc: p}] = end
	e.seqReady[p] = end
	e.seqIdx[p] = i + 1
	e.record(EventOp, inst.slot.Op, p, start, end)
	if end > e.lastActivity {
		e.lastActivity = end
	}
}

// nextQueueHopStart returns the earliest start of the head entry of a link's
// static communication order, skipping entries that will never transmit.
func (e *engine) nextQueueHopStart(link string) (float64, bool) {
	q := e.queues[link]
	i := e.queueIdx[link]
	for ; i < len(q); i++ {
		en := q[i]
		if en.sd.state == sendNever || en.sd.state == sendDone || en.sd.hopDone > en.hop {
			continue // skipped or already executed
		}
		e.queueIdx[link] = i
		ready, ok := e.hopDataReady(en)
		if !ok {
			return 0, false // head blocked: static order stalls the link
		}
		return math.Max(ready, e.linkFree[link]), true
	}
	e.queueIdx[link] = i
	return 0, false
}

// hopDataReady returns when the data for a sender's next hop is available at
// the hop's origin.
func (e *engine) hopDataReady(en *queueEntry) (float64, bool) {
	sd := en.sd
	if en.hop != sd.hopDone {
		return 0, false // an earlier hop of the same transfer is pending
	}
	if en.hop > 0 {
		return sd.hopTime, true
	}
	done, ok := e.opDone[opProcKey{op: sd.srcOp, proc: sd.proc}]
	if !ok {
		return 0, false
	}
	return done, true
}

// execQueueHop executes the head entry of a link's static order.
func (e *engine) execQueueHop(link string) {
	q := e.queues[link]
	en := q[e.queueIdx[link]]
	ready, _ := e.hopDataReady(en)
	e.execHop(en.gr, en.sd, ready)
}

// execHop transmits one hop of a transfer; a forwarding processor dying or
// going silent mid-transfer loses the message.
func (e *engine) execHop(gr *group, sd *sender, ready float64) {
	h := sd.hops[sd.hopDone]
	start := math.Max(ready, e.linkFree[h.link])
	if from, to, ok := e.st.silence(h.from, e.it); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		// The sender is inside a bounded outage: its communication unit
		// resumes the pending transfer after the recovery.
		start = math.Max(to, e.linkFree[h.link])
	}
	if from, to, ok := e.st.linkSilence(h.link, e.it); ok && !math.IsInf(to, 1) && start >= from-eps && start < to {
		// The link is inside a bounded outage: the frame waits until the
		// medium carries traffic again.
		start = math.Max(to, e.linkFree[h.link])
	}
	end := start + h.dur
	if e.st.silentDuring(h.from, e.it, start, end) {
		// The sender stops mid-frame: the link is held until the silence
		// begins, the message is lost, and the receivers' timeout machinery
		// takes over.
		if from, _, ok := e.st.silence(h.from, e.it); ok && start < from && from > e.linkFree[h.link] {
			e.linkFree[h.link] = from
		}
		sd.state = sendNever
		e.lost++
		return
	}
	if e.st.linkSilentDuring(h.link, e.it, start, end) {
		// The link goes down mid-frame (or is permanently dead): the frame
		// is lost exactly like a sender silence — the receivers cannot tell
		// the two apart.
		if from, _, ok := e.st.linkSilence(h.link, e.it); ok && start < from && from > e.linkFree[h.link] {
			e.linkFree[h.link] = from
		}
		sd.state = sendNever
		e.lost++
		return
	}
	e.linkFree[h.link] = end
	sd.hopDone++
	sd.hopTime = end
	sd.state = sendActive
	if sd.hopDone < len(sd.hops) {
		return
	}
	// Final hop: the value arrives.
	sd.state = sendDone
	sd.arrival = end
	e.messages++
	e.record(EventComm, gr.edge.String(), h.link, start, end)
	if end > e.lastActivity {
		e.lastActivity = end
	}
	for _, rcv := range gr.receivers(e.a) {
		if e.st.silentAt(rcv, e.it, end) {
			// A receiver silent at delivery time misses the message; there
			// is no buffering in the network interface.
			e.missed++
			continue
		}
		key := edgeProcKey{edge: gr.edge, proc: rcv}
		if cur, ok := e.commAvail[key]; !ok || end < cur {
			e.commAvail[key] = end
		}
	}
	// A message from a processor previously marked faulty proves it is
	// running: the healthy processors scanning the bus clear its fail flag
	// (Section 6.1, Item 3) and re-integrate it.
	if e.st.detected[sd.proc] && !e.st.silentAt(sd.proc, e.it, end) {
		delete(e.st.detected, sd.proc)
	}
}

// nextFailover walks an FT1 failover chain and returns the next passive
// sender ready to transmit: every earlier rank must be resolved (lost, dead,
// or arrived too late) and the accumulated detection deadline expired.
func (e *engine) nextFailover(gr *group) (int, float64, bool) {
	effDeadline := 0.0
	for i, sd := range gr.senders {
		if sd.skipped {
			// Marked faulty in an earlier iteration: the receivers do not
			// wait for this rank (Fig. 10's fail flags), so it contributes
			// no deadline and never satisfies the chain. But a flagged
			// processor that is actually alive (a detection mistake, or an
			// intermittent outage) does not know it is flagged: its sends
			// still happen — active ones through the static link order,
			// passive ones through the failover path below — and
			// re-integrate it on arrival.
			if sd.passive && sd.state == sendUnknown {
				if done, ok := e.opDone[opProcKey{op: sd.srcOp, proc: sd.proc}]; ok {
					start := math.Max(math.Max(done, effDeadline), e.linkFree[sd.hops[0].link])
					return i, start, true
				}
			}
			continue
		}
		switch sd.state {
		case sendDone:
			if sd.arrival <= effDeadline+eps || sd.arrival <= sd.deadline+eps {
				gr.settled = true
				return -1, 0, false // delivered before anyone gave up
			}
			effDeadline = math.Max(effDeadline, sd.deadline)
		case sendNever:
			effDeadline = math.Max(effDeadline, sd.deadline)
		case sendActive, sendUnknown:
			if !sd.passive {
				// The active sender has not transmitted (or not finished)
				// yet. The receivers do not know why: they simply wait
				// until its deadline, so the next rank's failover becomes
				// available then. The chronological action order guarantees
				// that a send able to complete before the failover fires
				// executes first and preempts it (checked again at
				// execution time).
				effDeadline = math.Max(effDeadline, sd.deadline)
				continue
			}
			done, ok := e.opDone[opProcKey{op: sd.srcOp, proc: sd.proc}]
			if !ok {
				return -1, 0, false // backup has not computed the value yet
			}
			start := math.Max(math.Max(done, effDeadline), e.linkFree[sd.hops[0].link])
			return i, start, true
		}
	}
	// Every sender resolved without satisfying the chain and without a
	// pending failover: nothing more can fire.
	for _, sd := range gr.senders {
		if sd.state == sendUnknown || sd.state == sendActive {
			return -1, 0, false
		}
	}
	gr.settled = true
	return -1, 0, false
}

// execFailover performs a backup sender's transfer after marking the
// timed-out predecessors as faulty. If a late message from an earlier rank
// arrived in the meantime, the failover is cancelled (the backup observed
// the value on the bus before transmitting).
func (e *engine) execFailover(gr *group, idx int, start float64) {
	sd := gr.senders[idx]
	for _, prev := range gr.senders[:idx] {
		if prev.state == sendDone && prev.arrival <= start+eps {
			sd.state = sendNever
			return
		}
	}
	e.detectEarlier(gr, idx, start)
	e.failovers++
	e.record(EventFailover, gr.edge.String(), sd.proc, start, start)
	// Passive transfers execute their hops back to back (they are not part
	// of any static order).
	ready := start
	for sd.state != sendDone && sd.state != sendNever { //ftlint:allow-nopoll bounded: each execHop advances the sender one hop along its finite route
		e.execHop(gr, sd, ready)
		ready = sd.hopTime
	}
}

// detectEarlier marks as faulty every earlier-ranked sender of a chain whose
// message has not been observed by the time the failover fires.
func (e *engine) detectEarlier(gr *group, idx int, now float64) {
	for _, sd := range gr.senders[:idx] {
		if sd.skipped || e.st.detected[sd.proc] {
			continue
		}
		if sd.state == sendDone && sd.arrival <= now+eps {
			continue // message observed (possibly late): not marked
		}
		e.st.detected[sd.proc] = true
		e.timeouts++
		if math.IsInf(e.st.deadAt(sd.proc, e.it), 1) {
			// The sender is alive; its message is merely delayed. This is a
			// detection mistake (Section 6.1, Item 3); it will be corrected
			// if the late message is eventually observed on the bus.
			e.falseDet++
		}
	}
}

// finalTimeoutSweep accounts for chains whose every sender failed: the
// receivers still waited for each undetected sender's deadline.
func (e *engine) finalTimeoutSweep() {
	for _, gr := range e.groups {
		if !gr.chain {
			continue
		}
		satisfied, allResolved := false, true
		for _, sd := range gr.senders {
			if sd.state == sendDone {
				satisfied = true
			}
			if sd.state == sendUnknown || sd.state == sendActive {
				allResolved = false
			}
		}
		if satisfied || !allResolved {
			continue
		}
		for _, sd := range gr.senders {
			if sd.skipped || e.st.detected[sd.proc] {
				continue
			}
			if !math.IsInf(e.st.deadAt(sd.proc, e.it), 1) {
				e.st.detected[sd.proc] = true
				e.timeouts++
			}
		}
	}
}

// report assembles the iteration's result.
func (e *engine) report() IterationResult {
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].Start < e.events[j].Start })
	ir := IterationResult{
		Trace:           e.events,
		Outputs:         make(map[string]bool),
		MessagesSent:    e.messages,
		TimeoutsFired:   e.timeouts,
		FalseDetections: e.falseDet,
		End:             e.lastActivity,
		Completed:       true,
	}
	for _, o := range e.ids.Outputs {
		out := e.ops[o]
		best := math.Inf(1)
		for _, p := range e.s.Procs() {
			if d, ok := e.opDone[opProcKey{op: out, proc: p}]; ok && d < best {
				best = d
			}
		}
		produced := !math.IsInf(best, 1)
		ir.Outputs[out] = produced
		if !produced {
			ir.Completed = false
			continue
		}
		if best > ir.ResponseTime {
			ir.ResponseTime = best
		}
	}
	return ir
}
