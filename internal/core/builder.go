package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// instruments holds the builder's pre-resolved observability counters and
// its span sink. The zero value (all nil) is the disabled state: every
// counter hit is a nil check, every span a nil-receiver no-op, so the
// schedule and its timing are unaffected when Options.Obs is unset.
// Counters are atomic, so the evaluation worker pool increments them
// concurrently without coordination.
type instruments struct {
	sink        *obs.Sink
	steps       *obs.Counter // greedy scheduling steps committed
	evals       *obs.Counter // candidate evaluations performed (mSn.1)
	cacheHits   *obs.Counter // gap searches reused from the cross-step route memo
	gapSearches *obs.Counter // gap-search lookups, answered from a memo or run
	gapHits     *obs.Counter // lookups answered without running occupancy.search
	poolBatches *obs.Counter // steps evaluated on the worker pool
	poolEvals   *obs.Counter // evaluations executed on the pool
	poolWorkers *obs.Counter // workers engaged, summed over batches
}

// resolve registers the builder's counters on the sink (no-op when nil).
func (in *instruments) resolve(s *obs.Sink) {
	if s == nil {
		return
	}
	in.sink = s
	in.steps = s.Counter("core.steps")
	in.evals = s.Counter("core.evals")
	in.cacheHits = s.Counter("core.cache.hits")
	in.gapSearches = s.Counter("core.gap.searches")
	in.gapHits = s.Counter("core.gap.memo.hits")
	in.poolBatches = s.Counter("core.pool.batches")
	in.poolEvals = s.Counter("core.pool.evals")
	in.poolWorkers = s.Counter("core.pool.workers")
}

// eps absorbs float64 noise when comparing schedule dates.
const eps = 1e-9

// interval is a busy window on a link, part of a sorted, non-overlapping set.
type interval struct {
	start, end float64
}

// earliestGap returns the earliest date >= ready at which a transfer of
// duration dur fits into the free gaps of busy (sorted by start).
//
// Intervals are non-overlapping (every occupancy comes from a previous gap
// search), so their end dates are sorted too and the scan can start at the
// first interval still ending after ready; everything before it neither
// blocks the window nor advances t. The backup loop guards against
// eps-scale end-date inversions introduced by tolerant gap fits.
func earliestGap(busy []interval, ready, dur float64) float64 {
	i := sort.Search(len(busy), func(i int) bool { return busy[i].end > ready }) //ftlint:hotalloc-ok non-escaping: sort.Search invokes the predicate without retaining it
	for i > 0 && busy[i-1].end > ready {
		i--
	}
	t := ready
	for _, iv := range busy[i:] {
		if iv.start-t >= dur-eps {
			return t
		}
		if iv.end > t {
			t = iv.end
		}
	}
	return t
}

// insertPos is the index at which [start,end) enters busy: before the
// first interval starting later, or at the same date but ending later. Only
// a zero-length transfer can share its start with another interval; ordering
// equal starts by end keeps the end dates sorted, which the binary searches
// of earliestGap and occupancy.search rely on.
func insertPos(busy []interval, start, end float64) int {
	return sort.Search(len(busy), func(i int) bool { //ftlint:hotalloc-ok non-escaping: sort.Search invokes the predicate without retaining it
		return busy[i].start > start || busy[i].start == start && busy[i].end > end
	})
}

// insertInterval adds [start,end) at insertPos.
func insertInterval(busy []interval, start, end float64) []interval {
	i := insertPos(busy, start, end)
	busy = append(busy, interval{})
	copy(busy[i+1:], busy[i:])
	busy[i] = interval{start: start, end: end}
	return busy
}

// hopPlan is a tentatively routed hop, committed only if the evaluation is
// selected.
type hopPlan struct {
	link     int32
	from, to int32
	start    float64
	end      float64
}

// bcastSearch carries one evaluation's FT1 broadcast search for the edge
// being evaluated. Every destination on the bus receives the same
// broadcast, so edge-major evaluation searches it once per edge and bus.
// bus is -1 until the first search.
type bcastSearch struct {
	bus int32
	end float64
}

// gapSearch returns the earliest start of a dur-long transfer on link from
// ready. key >= 0 names the route-memo entry of a route's first hop: the
// memo answers while every interval inserted on the link since the entry
// was last checked leaves the search's window alone (occupancy.keeps), and
// is refilled otherwise. key < 0 (later hops, broadcasts, no memo) searches
// directly.
func (b *builder) gapSearch(link int32, key int, ready, dur float64) float64 {
	b.ins.gapSearches.Inc()
	o := &b.st.linkBusy[link]
	if key < 0 {
		return o.search(ready, dur)
	}
	if pos := b.memoPos[key]; pos >= 0 && o.keeps(pos, ready, dur, b.memoVal[key]) {
		b.memoPos[key] = int32(len(o.log))
		b.ins.cacheHits.Inc()
		b.ins.gapHits.Inc()
		return b.memoVal[key]
	}
	v := o.search(ready, dur)
	b.memoVal[key], b.memoPos[key] = v, int32(len(o.log))
	return v
}

// builder holds the mutable state of one scheduling run: the compiled model
// (read-only), the SoA schedule state, and the incremental-evaluation
// machinery, all integer-indexed. Strings appear only at the two ends —
// compile interning them in, materialize rendering them back out.
type builder struct {
	m    *model
	opts Options
	mode sched.Mode
	k    int

	st *schedState

	workers int
	// maxRepl bounds the replicas of one operation: 1 for Basic, else
	// min(K+1, processors).
	maxRepl int

	// Incremental engine state (see DESIGN.md §8): the ready candidates as
	// ascending op IDs (declaration order) and the count of unscheduled
	// strict predecessors per operation.
	cands        []int32
	pendingPreds []int32

	// The cross-step route memo (DESIGN.md §8.3), nil when no evaluation
	// plans a routed transfer. Entry (edge*maxRepl+rank)*memoWidth+slot
	// holds the gap search of the first hop from the producer replica of
	// that rank over its link numbered slot (memoSlot): memoVal the result,
	// memoPos the length of the link's insert log it was last checked
	// against, -1 while empty. Every destination whose route starts on that
	// link shares the entry.
	memoVal   []float64
	memoPos   []int32
	memoSlot  []int32
	memoWidth int

	// Per-step buffers, reused across steps: one evaluation per candidate,
	// with its scored and kept entries carved from scoredBuf and keptBuf.
	evals     []evaluation
	scoredBuf []scoredEntry
	keptBuf   []keptEntry

	planBuf []hopPlan // commit-path route buffer, reused every transfer

	rng     randSource
	trace   []StepTrace
	minRepl int
	ins     instruments
}

// randSource is the subset of *rand.Rand the builder needs; nil means
// deterministic first-declared tie-breaking.
type randSource interface {
	Intn(n int) int
}

func newBuilder(g *graph.Graph, a *arch.Architecture, sp *spec.Spec, mode sched.Mode, k int, opts Options) (*builder, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	if err := sp.Validate(g, a); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	m, err := compile(g, a, sp)
	if err != nil {
		return nil, err
	}
	b := &builder{
		m: m, opts: opts, mode: mode, k: k,
		st:           newSchedState(m, mode, k),
		pendingPreds: make([]int32, m.nOps),
		maxRepl:      1,
		minRepl:      math.MaxInt,
	}
	if mode != sched.ModeBasic {
		b.maxRepl = min(k+1, int(m.nProcs))
	}
	if b.plansRoutes() {
		b.memoSlot, b.memoWidth = firstHopSlots(m)
		n := int(m.nEdges) * b.maxRepl * b.memoWidth
		b.memoVal = make([]float64, n)
		b.memoPos = make([]int32, n)
		for i := range b.memoPos {
			b.memoPos[i] = -1
		}
		for l := range b.st.linkBusy {
			b.st.linkBusy[l].logged = true
		}
	}
	for o := int32(0); o < m.nOps; o++ {
		b.pendingPreds[o] = int32(len(m.ids.Preds(o)))
		if b.pendingPreds[o] == 0 {
			b.cands = append(b.cands, o)
		}
	}
	b.workers = opts.Workers
	if b.workers <= 0 {
		b.workers = runtime.GOMAXPROCS(0)
	}
	if r := opts.rng(); r != nil {
		b.rng = r
	}
	b.ins.resolve(opts.Obs)
	return b, nil
}

// plansRoutes reports whether the run can plan a routed transfer, the only
// kind the route memo serves: a point-to-point transfer (Basic, FT2, and FT1
// where no bus is shared or NoBroadcast is set) between two processors.
func (b *builder) plansRoutes() bool {
	m := b.m
	for i, route := range m.routes {
		if len(route) > 0 && (b.mode != sched.ModeFT1 || b.opts.NoBroadcast || m.bus[i] < 0) {
			return true
		}
	}
	return false
}

// firstHopSlots numbers the distinct first links of each sender's routes in
// destination order: slot[src*nProcs+dst] is the number of route(src, dst)'s
// first link (-1 for src == dst), and width the largest count over senders —
// 1 on a bus, 2 on a ring, processors-1 on a full mesh.
func firstHopSlots(m *model) (slot []int32, width int) {
	slot = make([]int32, len(m.routes))
	linkSlot := make([]int32, m.nLinks)
	for src := int32(0); src < m.nProcs; src++ {
		for l := range linkSlot {
			linkSlot[l] = -1
		}
		n := int32(0)
		for dst := int32(0); dst < m.nProcs; dst++ {
			i := src*m.nProcs + dst
			slot[i] = -1
			if route := m.routes[i]; len(route) > 0 {
				if linkSlot[route[0].link] < 0 {
					linkSlot[route[0].link] = n
					n++
				}
				slot[i] = linkSlot[route[0].link]
			}
		}
		width = max(width, int(n))
	}
	return slot, width
}

// replication returns the number of replicas to place for op, or an error
// when the constraints cannot support the requested fault tolerance.
func (b *builder) replication(op int32) (int, error) {
	allowed := len(b.m.allowed[op])
	if allowed == 0 {
		return 0, fmt.Errorf("%w: operation %q has no allowed processor", ErrInfeasible, b.m.opNames[op])
	}
	if b.mode == sched.ModeBasic {
		return 1, nil
	}
	want := b.k + 1
	if allowed < want {
		if !b.opts.AllowDegraded {
			return 0, fmt.Errorf("%w: operation %q can run on %d processors, %d needed to tolerate %d failures (set AllowDegraded to proceed)",
				ErrInfeasible, b.m.opNames[op], allowed, want, b.k)
		}
		return allowed, nil
	}
	return want, nil
}

// planRoute tentatively schedules the transfer of edge e from the producer
// replica of the given rank, on src, to dst, with the data ready at date
// ready, and returns the arrival date. It searches gaps against the current
// link occupancy but commits nothing; the first hop goes through the route
// memo, since its search depends only on the edge, the sender and the link.
// When plans is non-nil the hops are appended to it for a later
// commitPlans; evaluations pass nil and skip building them. Routes and
// communication durations come from the compiled model, which is total, so
// planning cannot fail.
func (b *builder) planRoute(e, rank, src, dst int32, ready float64, plans *[]hopPlan) float64 {
	m := b.m
	route := m.routes[src*m.nProcs+dst]
	key := -1
	if b.memoPos != nil {
		key = (int(e)*b.maxRepl+int(rank))*b.memoWidth + int(b.memoSlot[src*m.nProcs+dst])
	}
	at, t := src, ready
	for _, h := range route {
		dur := m.comm[e*m.nLinks+h.link]
		start := b.gapSearch(h.link, key, t, dur)
		key = -1
		if plans != nil {
			*plans = append(*plans, hopPlan{link: h.link, from: at, to: h.to, start: start, end: start + dur})
		}
		t = start + dur
		at = h.to
	}
	return t
}

// commitPlans records the hops of one transfer and, for active transfers,
// occupies the links.
func (b *builder) commitPlans(e, src, dst, senderRank int32, plans []hopPlan, passive bool, timeout float64) {
	id := b.st.newTransferID()
	for i, h := range plans {
		rec := commRec{
			edge: e, link: h.link, from: h.from, to: h.to,
			src: src, dst: dst, rank: senderRank,
			transferID: id, hop: int32(i), start: h.start, end: h.end,
			passive: passive,
		}
		if passive && i == 0 {
			rec.timeout = timeout
		}
		b.st.appendComm(rec)
		if !passive {
			b.st.occupy(h.link, h.start, h.end)
		}
	}
}

// arrival returns the failure-free availability date of edge e's value on
// dstProc under the builder's mode. With commit set, any missing transfers
// (and, in FT1, the passive backup chains) are recorded in the schedule;
// without it, bc carries the evaluation's broadcast search for e. In every
// mode a value produced by a replica on dstProc itself is local.
func (b *builder) arrival(e, dstProc int32, commit bool, bc *bcastSearch) (float64, error) {
	m := b.m
	src := m.ids.Src[e]
	if idx := b.st.repOn[src*m.nProcs+dstProc]; idx >= 0 {
		return b.st.ops[idx].end, nil
	}
	reps := b.st.reps[src]
	if len(reps) == 0 {
		return 0, b.unscheduledPred(e)
	}
	switch b.mode {
	case sched.ModeBasic:
		return b.basicArrival(e, dstProc, reps, commit), nil
	case sched.ModeFT1:
		return b.ft1Arrival(e, dstProc, reps, commit, bc), nil
	case sched.ModeFT2:
		return b.ft2Arrival(e, dstProc, reps, commit), nil
	default:
		return 0, fmt.Errorf("core: unknown mode %v", b.mode) //ftlint:hotalloc-ok defensive: unknown modes are rejected at Build entry, so this branch formats never or aborts once
	}
}

// unscheduledPred reports the error for an arrival queried before the edge's
// producer was committed — an internal ordering bug, never user input.
func (b *builder) unscheduledPred(e int32) error {
	key := b.m.edgeKeys[e]
	return fmt.Errorf("core: predecessor %q of %q not scheduled", key.Src, key.Dst) //ftlint:hotalloc-ok error path: an unscheduled predecessor is an internal ordering bug that aborts the run
}

// basicArrival delivers e's value with one routed transfer from the main
// replica of the producer.
func (b *builder) basicArrival(e, dstProc int32, reps []int32, commit bool) float64 {
	m := b.m
	main := &b.st.ops[reps[0]]
	if d := b.st.deliv[e*m.nProcs+dstProc]; !math.IsNaN(d) {
		return d
	}
	if !commit {
		return b.planRoute(e, 0, main.proc, dstProc, main.end, nil)
	}
	b.planBuf = b.planBuf[:0]
	t := b.planRoute(e, 0, main.proc, dstProc, main.end, &b.planBuf)
	b.commitPlans(e, main.proc, dstProc, 0, b.planBuf, false, 0)
	b.st.setDeliv(e, dstProc, t)
	return t
}

// ft1Arrival implements the first solution's communication scheme: the main
// replica of the producer sends once (a broadcast on a shared bus, a routed
// transfer otherwise); backup replicas get passive, timeout-guarded
// reservations committed alongside the active transfer.
func (b *builder) ft1Arrival(e, dstProc int32, reps []int32, commit bool, bc *bcastSearch) float64 {
	m := b.m
	main := &b.st.ops[reps[0]]
	bus := m.bus[main.proc*m.nProcs+dstProc]
	if bus < 0 || b.opts.NoBroadcast {
		// The chain's marker makes a repeat call a no-op, exactly when the
		// delivery was committed before.
		t := b.basicArrival(e, dstProc, reps, commit)
		if commit {
			b.ft1PassiveChain(e, -1, dstProc, t)
		}
		return t
	}
	if end := b.st.bcastEnd[e*m.nLinks+bus]; !math.IsNaN(end) {
		return end
	}
	if !commit && bc.bus == bus {
		b.ins.gapSearches.Inc()
		b.ins.gapHits.Inc()
		return bc.end
	}
	dur := m.comm[e*m.nLinks+bus]
	start := b.gapSearch(bus, -1, main.end, dur)
	if !commit {
		bc.bus, bc.end = bus, start+dur
		return start + dur
	}
	b.st.appendComm(commRec{
		edge: e, link: bus, from: main.proc, to: -1,
		src: main.proc, dst: -1,
		transferID: b.st.newTransferID(), start: start, end: start + dur,
		broadcast: true,
	})
	b.st.occupy(bus, start, start+dur)
	b.st.setBcast(e, bus, start+dur)
	b.ft1PassiveChain(e, bus, -1, start+dur)
	return start + dur
}

// ft1PassiveChain commits the timeout chain of Fig. 12 for edge e: for each
// backup rank of the producer, a passive reservation that activates when
// every earlier sender has been detected faulty. bus is the broadcast bus
// (-1 for a point-to-point chain toward dstProc); mainDeadline is the
// worst-case arrival date of the main replica's (active) transfer; each
// passive slot's Timeout is the deadline of the previous rank.
//
// Static dates are worst-case without re-modeling link contention after a
// failure: backup k sends at max(deadline(k-1), completion(k)) and its hops
// follow sequentially. The executive simulator recomputes actual dates.
//
// The compiled model's route and comm tables are total (compile fails on any
// hole), so — unlike the pre-dense engine, which could discover a missing
// cost here — every backup hop is guaranteed routable and costed by the time
// the chain is committed.
func (b *builder) ft1PassiveChain(e, bus, dstProc int32, mainDeadline float64) {
	m := b.m
	if bus >= 0 {
		if b.st.passBus[e*m.nLinks+bus] {
			return
		}
	} else if b.st.passDst[e*m.nProcs+dstProc] {
		return
	}
	reps := b.st.reps[m.ids.Src[e]]
	deadline := mainDeadline
	for rank := 1; rank < len(reps); rank++ {
		sender := &b.st.ops[reps[rank]]
		if bus < 0 && sender.proc == dstProc {
			// The backup is colocated with the consumer: on failover the
			// value is already local, no reservation needed for this rank.
			continue
		}
		if bus >= 0 {
			dur := m.comm[e*m.nLinks+bus]
			start := math.Max(deadline, sender.end)
			b.st.appendComm(commRec{
				edge: e, link: bus, from: sender.proc, to: -1,
				src: sender.proc, dst: -1, rank: int32(rank),
				transferID: b.st.newTransferID(),
				start:      start, end: start + dur,
				passive: true, timeout: deadline, broadcast: true,
			})
			deadline = start + dur
			continue
		}
		id := b.st.newTransferID()
		at := sender.proc
		t := math.Max(deadline, sender.end)
		timeout := deadline
		for i, h := range m.routes[sender.proc*m.nProcs+dstProc] {
			dur := m.comm[e*m.nLinks+h.link]
			rec := commRec{
				edge: e, link: h.link, from: at, to: h.to,
				src: sender.proc, dst: dstProc, rank: int32(rank),
				transferID: id, hop: int32(i), start: t, end: t + dur,
				passive: true,
			}
			if i == 0 {
				rec.timeout = timeout
			}
			b.st.appendComm(rec)
			t += dur
			at = h.to
		}
		deadline = t
	}
	if bus >= 0 {
		b.st.markPassBus(e, bus)
	} else {
		b.st.markPassDst(e, dstProc)
	}
}

// ft2Arrival implements the second solution's communication scheme: every
// replica of the producer sends to dstProc, the first arrival wins. A
// producer replica on dstProc itself (handled by arrival) means no transfer
// at all is committed for this consumer (Section 7.1).
func (b *builder) ft2Arrival(e, dstProc int32, reps []int32, commit bool) float64 {
	m := b.m
	best := math.Inf(1)
	for _, ri := range reps {
		r := &b.st.ops[ri]
		t := b.st.sent[(e*m.nProcs+r.proc)*m.nProcs+dstProc]
		if math.IsNaN(t) {
			if commit {
				b.planBuf = b.planBuf[:0]
				t = b.planRoute(e, r.replica, r.proc, dstProc, r.end, &b.planBuf)
				b.commitPlans(e, r.proc, dstProc, r.replica, b.planBuf, false, 0)
				b.st.setSent(e, r.proc, dstProc, t)
			} else {
				t = b.planRoute(e, r.replica, r.proc, dstProc, r.end, nil)
			}
		}
		if t < best {
			best = t
		}
	}
	return best
}

// commitReplica schedules one replica of op on proc, committing the
// transfers that deliver its inputs, and returns the replica's arena index.
func (b *builder) commitReplica(op, proc int32, rank int) (int32, error) {
	start := b.st.procFree[proc]
	for _, pe := range b.m.ids.Preds(op) {
		at, err := b.arrival(pe.Edge, proc, true, nil)
		if err != nil {
			return -1, err
		}
		if at > start {
			start = at
		}
	}
	d := b.m.exec[op*b.m.nProcs+proc]
	if math.IsInf(d, 1) {
		// Never reached: proc comes from m.allowed, which keeps only CanRun
		// processors. The check turns a table bug into an error instead of
		// letting ∞ poison every later start date.
		return -1, fmt.Errorf("core: replica of %s placed on forbidden processor %s", b.m.opNames[op], b.m.procNames[proc])
	}
	idx := b.st.appendOp(opRec{op: op, proc: proc, replica: int32(rank), start: start, end: start + d})
	b.st.procFree[proc] = start + d
	b.st.repOn[op*b.m.nProcs+proc] = idx
	return idx, nil
}

// commitDelayedEdges schedules the state-update transfers of delayed edges
// (edges into mems) once every operation is placed. They do not constrain
// intra-iteration start dates but must still deliver the next-iteration
// value to every replica of the mem.
func (b *builder) commitDelayedEdges() error {
	ids := b.m.ids
	for e, delayed := range ids.Delayed {
		if !delayed {
			continue
		}
		for _, ri := range b.st.reps[ids.Dst[e]] {
			if _, err := b.arrival(int32(e), b.st.ops[ri].proc, true, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// materialize renders the arenas into the public string-keyed schedule.
// Slots are replayed in arena (commit) order, so the stable start-date sorts
// of sched.ProcSlots/LinkSlots break ties exactly as they did when the old
// engine added slots one commit at a time.
func (b *builder) materialize() *sched.Schedule {
	m := b.m
	s := sched.New(b.mode, b.k)
	for i := range b.st.ops {
		r := &b.st.ops[i]
		s.AddOpSlot(sched.OpSlot{
			Op: m.opNames[r.op], Proc: m.procNames[r.proc],
			Replica: int(r.replica), Start: r.start, End: r.end,
		})
	}
	for i := range b.st.comms {
		c := &b.st.comms[i]
		slot := sched.CommSlot{
			Edge: m.edgeKeys[c.edge], Link: m.linkNames[c.link],
			From: m.procNames[c.from], SrcProc: m.procNames[c.src],
			SenderRank: int(c.rank), TransferID: int(c.transferID),
			Hop: int(c.hop), Start: c.start, End: c.end,
			Passive: c.passive, Timeout: c.timeout, Broadcast: c.broadcast,
		}
		if c.to >= 0 {
			slot.To = m.procNames[c.to]
		}
		if c.dst >= 0 {
			slot.DstProc = m.procNames[c.dst]
		}
		s.AddCommSlot(slot)
	}
	s.ReserveTransferIDs(int(b.st.nextTransfer))
	return s
}

// run executes the greedy list-scheduling loop shared by the three
// heuristics (Figs. 11 and 20).
func (b *builder) run() (*Result, error) {
	m := b.m
	scheduled := 0
	for step := 1; len(b.cands) > 0; step++ {
		if b.opts.canceled() {
			return nil, ErrCanceled
		}
		evalSpan := b.ins.sink.StartSpan("core", "evaluate")
		evals, err := b.evaluateStep()
		evalSpan.End()
		if err != nil {
			return nil, err
		}
		commitSpan := b.ins.sink.StartSpan("core", "commit")
		sel := b.selectCandidate(evals)
		chosen := evals[sel]
		var cands []string
		var pressures []PressureEntry
		if b.opts.Trace {
			cands = make([]string, len(b.cands))
			for i, c := range b.cands {
				cands[i] = m.opNames[c]
			}
			for _, ev := range evals {
				for _, ke := range ev.kept {
					pressures = append(pressures, PressureEntry{
						Op: m.opNames[ev.op], Proc: m.procNames[ke.proc], Sigma: ke.sigma,
					})
				}
			}
		}
		b.retire(chosen.op)
		slots := b.st.claimReps(chosen.op, len(chosen.kept))
		for i, ke := range chosen.kept {
			idx, err := b.commitReplica(chosen.op, ke.proc, i)
			if err != nil {
				return nil, err
			}
			slots[i] = idx
		}
		// Rank replicas by completion date: the earliest finisher is the
		// main replica, the others are backups in election order.
		ops := b.st.ops
		sort.SliceStable(slots, func(i, j int) bool { return ops[slots[i]].end < ops[slots[j]].end })
		for i, idx := range slots {
			ops[idx].replica = int32(i)
		}
		if len(slots) < b.minRepl {
			b.minRepl = len(slots)
		}
		scheduled++
		b.ins.steps.Inc()
		commitSpan.End()
		if b.opts.Trace {
			main := &ops[slots[0]]
			st := StepTrace{
				Step:       step,
				Candidates: cands,
				Pressures:  pressures,
				Selected:   m.opNames[chosen.op],
				Start:      main.start,
				End:        main.end,
			}
			for _, idx := range slots {
				st.Procs = append(st.Procs, m.procNames[ops[idx].proc])
			}
			b.trace = append(b.trace, st)
		}
	}
	if scheduled != int(m.nOps) {
		return nil, fmt.Errorf("core: internal error: %d of %d operations scheduled", scheduled, m.nOps)
	}
	delayedSpan := b.ins.sink.StartSpan("core", "delayed-edges")
	err := b.commitDelayedEdges()
	delayedSpan.End()
	if err != nil {
		return nil, err
	}
	if b.minRepl == math.MaxInt {
		b.minRepl = 0
	}
	s := b.materialize()
	if b.opts.Deadline > 0 && s.Makespan() > b.opts.Deadline+eps {
		return nil, fmt.Errorf("%w: makespan %g exceeds deadline %g",
			ErrDeadlineMissed, s.Makespan(), b.opts.Deadline)
	}
	return &Result{Schedule: s, MinReplication: b.minRepl, Trace: b.trace}, nil
}

// retire removes a committed operation from the candidate machinery and
// admits the successors it unblocks. Op IDs are declaration indices, so
// keeping b.cands ascending keeps it in declaration order (the order the
// full rescan used to produce).
func (b *builder) retire(op int32) {
	i := sort.Search(len(b.cands), func(i int) bool { return b.cands[i] >= op })
	b.cands = append(b.cands[:i], b.cands[i+1:]...)
	for _, arc := range b.m.ids.Succs(op) {
		s := arc.Op
		b.pendingPreds[s]--
		if b.pendingPreds[s] == 0 {
			j := sort.Search(len(b.cands), func(i int) bool { return b.cands[i] >= s })
			b.cands = append(b.cands, 0)
			copy(b.cands[j+1:], b.cands[j:])
			b.cands[j] = s
		}
	}
}

// keptEntry is one kept (processor, sigma) pair of an evaluation.
type keptEntry struct {
	proc  int32
	sigma float64
}

// scoredEntry is one (processor, sigma) evaluation with its start and
// completion dates; the completion date breaks pressure ties.
type scoredEntry struct {
	proc                     int32
	start, sigma, completion float64
}

// evaluation holds micro-step mSn.1's result for one candidate: one scored
// entry per allowed processor, then the kept entries, best first. Both
// slices are carved from the builder's per-step buffers.
type evaluation struct {
	op      int32
	scored  []scoredEntry
	kept    []keptEntry
	urgency float64 // the greatest kept sigma, used at mSn.2
	err     error   // evaluateOne's failure, reported in candidate order
}

// evaluateStep runs micro-step mSn.1 for the current candidates and guards
// the read-only contract: the SoA state's mutation epoch must not move while
// evaluations (serial or pooled) are in flight.
//
// Every candidate is evaluated afresh at every step, seeded or not; what
// carries over between steps is the route memo under the gap searches.
// Unseeded evaluations keep their best entries as they finish. Seeded runs
// shuffle each candidate's entries and keep the best here, serially and in
// candidate order, so the shared tie-breaking rand stream is consumed
// exactly as the original serial heuristic consumed it.
func (b *builder) evaluateStep() ([]evaluation, error) {
	epoch := b.st.mutEpoch
	evals, err := b.carveStep()
	if err != nil {
		return nil, err
	}
	b.evaluateCands(evals)
	for i := range evals {
		ev := &evals[i]
		if ev.err != nil {
			return nil, ev.err
		}
		if b.rng != nil {
			for k := len(ev.scored) - 1; k > 0; k-- {
				j := b.rng.Intn(k + 1)
				ev.scored[k], ev.scored[j] = ev.scored[j], ev.scored[k]
			}
			keepBest(ev)
		}
	}
	if b.st.mutEpoch != epoch {
		return nil, fmt.Errorf("core: internal error: schedule state mutated during candidate evaluation (epoch %d -> %d)", epoch, b.st.mutEpoch)
	}
	return evals, nil
}

// carveStep sets up one evaluation per candidate, in candidate order, with
// its scored and kept entries carved from buffers reused across steps. A
// candidate that cannot be replicated fails the step before any evaluation
// runs, so the first infeasible candidate in order is the one reported.
func (b *builder) carveStep() ([]evaluation, error) {
	n := len(b.cands)
	if cap(b.evals) < n {
		b.evals = make([]evaluation, 2*n)
		b.scoredBuf = make([]scoredEntry, 2*n*int(b.m.nProcs))
		b.keptBuf = make([]keptEntry, 2*n*b.maxRepl)
	}
	evals := b.evals[:n]
	var ns, nk int
	for i, op := range b.cands {
		repl, err := b.replication(op)
		if err != nil {
			return nil, err
		}
		na := len(b.m.allowed[op])
		evals[i] = evaluation{op: op, scored: b.scoredBuf[ns : ns+na : ns+na], kept: b.keptBuf[nk : nk+repl : nk+repl]}
		ns += na
		nk += repl
	}
	return evals, nil
}

// evaluateCands evaluates every carved candidate. The calling goroutine
// claims candidates through one shared atomic index, joined by up to
// Workers-1 pool goroutines when there are that many candidates to share
// and the step's work reaches poolMinWork. An evaluation writes only its
// own evaluation and the route-memo entries of its own in-edges, and no
// two candidates share an in-edge, so results are the same for every
// worker count and claim order.
func (b *builder) evaluateCands(evals []evaluation) {
	var next atomic.Int32
	var wg sync.WaitGroup
	if workers := min(b.workers, len(evals)); workers > 1 && b.stepWork(evals) >= poolMinWork {
		b.ins.poolBatches.Inc()
		b.ins.poolEvals.Add(int64(len(evals)))
		b.ins.poolWorkers.Add(int64(workers))
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func() {
				defer wg.Done()
				b.claimEvals(evals, &next)
			}()
		}
	}
	b.claimEvals(evals, &next)
	wg.Wait()
}

// poolMinWork is the step work (see stepWork) from which the pool pays
// for its goroutines; smaller steps are evaluated serially (DESIGN.md
// §8.5). Tests lower it to run small problems on the pool.
var poolMinWork = 2048

// stepWork estimates the work of evaluating one step's candidates: the
// arrivals evaluateOne computes, one per allowed processor and in-edge of
// each candidate (one per processor without in-edges), times the
// transfers one arrival plans: every replica of the producer sends under
// FT2, one sender does under Basic and FT1.
func (b *builder) stepWork(evals []evaluation) int {
	w := 0
	for i := range evals {
		w += len(evals[i].scored) * max(1, len(b.m.ids.Preds(evals[i].op)))
	}
	if b.mode == sched.ModeFT2 {
		w *= b.maxRepl
	}
	return w
}

// claimEvals evaluates candidates claimed from next until none is left.
func (b *builder) claimEvals(evals []evaluation, next *atomic.Int32) {
	for i := int(next.Add(1)) - 1; i < len(evals); i = int(next.Add(1)) - 1 {
		b.evaluate(&evals[i])
	}
}

// evaluate runs evaluateOne on ev and, in unseeded runs, keeps its best
// entries right away.
func (b *builder) evaluate(ev *evaluation) {
	ev.err = b.evaluateOne(ev)
	if ev.err == nil && b.rng == nil {
		keepBest(ev)
	}
}

// evaluateOne scores ev.op on every allowed processor, edge by edge: each
// processor starts at its frontier, and each predecessor edge in turn
// raises the start dates its arrivals delay. Safe for concurrent use on
// distinct candidates: it reads the schedule state and writes only ev and
// the route-memo entries of ev.op's in-edges.
func (b *builder) evaluateOne(ev *evaluation) error {
	b.ins.evals.Inc()
	m := b.m
	ents := ev.scored
	for i, p := range m.allowed[ev.op] {
		ents[i] = scoredEntry{proc: p, start: b.st.procFree[p]}
	}
	for _, pe := range m.ids.Preds(ev.op) {
		bc := bcastSearch{bus: -1}
		for i := range ents {
			at, err := b.arrival(pe.Edge, ents[i].proc, false, &bc)
			if err != nil {
				return err
			}
			if at > ents[i].start {
				ents[i].start = at
			}
		}
	}
	for i := range ents {
		e := &ents[i]
		d := m.exec[ev.op*m.nProcs+e.proc]
		e.completion = e.start + d
		e.sigma = m.sigma.Sigma(ev.op, e.start, d)
		if b.opts.NoPressure {
			// Ablation: earliest-finish-time only, no remaining-path term.
			e.sigma = e.completion
		}
	}
	return nil
}

// keepBest sorts ev's scored entries and keeps the len(ev.kept) smallest
// pressures. Equal pressures are split by earliest completion date, then
// architecture declaration order (the stable sort preserves it — processor
// IDs are declaration indices and entries arrive in ascending ID order).
// With a seed set, equal entries are instead resolved randomly, like the
// paper's "randomly chosen" tie-breaking: the caller shuffles first, so the
// stable sort picks a random representative of each tie group.
func keepBest(ev *evaluation) {
	slices.SortStableFunc(ev.scored, func(x, y scoredEntry) int {
		switch {
		case ranksBefore(x, y):
			return -1
		case ranksBefore(y, x):
			return 1
		}
		return 0
	})
	for i := range ev.kept {
		ev.kept[i] = keptEntry{proc: ev.scored[i].proc, sigma: ev.scored[i].sigma}
	}
	ev.urgency = ev.kept[len(ev.kept)-1].sigma
}

// ranksBefore reports whether x is kept before y: lower pressure, or equal
// pressure (within eps) and an earlier completion date.
func ranksBefore(x, y scoredEntry) bool {
	if math.Abs(x.sigma-y.sigma) > eps {
		return x.sigma < y.sigma
	}
	return x.completion < y.completion-eps
}

// selectCandidate runs micro-step mSn.2: pick the candidate with the
// greatest kept pressure. Ties go to the earliest-declared operation, or to
// a random choice when Options.Seed is set.
func (b *builder) selectCandidate(evals []evaluation) int {
	best := 0
	var ties []int
	for i := 1; i < len(evals); i++ {
		switch {
		case evals[i].urgency > evals[best].urgency+eps:
			best = i
			ties = ties[:0]
		case evals[i].urgency > evals[best].urgency-eps:
			if len(ties) == 0 {
				ties = append(ties, best)
			}
			ties = append(ties, i)
		}
	}
	if b.rng != nil && len(ties) > 1 {
		return ties[b.rng.Intn(len(ties))]
	}
	return best
}
