package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/pressure"
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
	cacheHits   *obs.Counter // evaluations reused from the cross-step cache
	cacheInval  *obs.Counter // cached evaluations discarded as stale
	gapSearches *obs.Counter // earliestGap runs, memoized or not
	gapHits     *obs.Counter // gap searches answered by the per-eval memo
	poolBatches *obs.Counter // worker-pool dispatches (one per stale batch)
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
	in.cacheInval = s.Counter("core.cache.invalidations")
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

// gapEntry is one memoized gap search against a link's busy list: a search
// with the same (ready, dur) on the same frozen occupancy returns val.
type gapEntry struct {
	ready, dur, val float64
}

// evalCtx is the per-evaluation scratch state: the links consulted (for
// cache invalidation), a memo of gap searches, and the scored-entry buffer.
// Within one evaluation the link occupancies are frozen, so a gap search is
// a pure function of its (link, ready, dur) key — in FT1 on a bus, every
// destination processor of an uncommitted broadcast repeats the exact same
// search, which the memo collapses. A nil ctx (the commit path) disables
// both: occupancies mutate between commits.
//
// A ctx is owned by exactly one goroutine (the serial loop's, or one pool
// worker's) and reused across evaluations via reset, so the per-candidate
// maps the old engine allocated are gone entirely. Memo lookups scan the
// consulted link's entries linearly with exact float equality — the same
// key semantics as the old map, and the lists are tiny (one entry per
// distinct (ready, dur) pair seen on the link this evaluation).
type evalCtx struct {
	linkMark []bool        // linkMark[link]: consulted this evaluation
	links    []int32       // consulted links, consult order (for reset + cache deps)
	gaps     [][]gapEntry  // per-link memo, only non-empty for consulted links
	entries  []scoredEntry // scored-candidate buffer, reused across evaluations
}

func newEvalCtx(nLinks int32) *evalCtx {
	return &evalCtx{
		linkMark: make([]bool, nLinks),
		gaps:     make([][]gapEntry, nLinks),
	}
}

// reset clears the consulted links and their memo entries, keeping all
// capacity for the next evaluation.
func (ctx *evalCtx) reset() {
	for _, l := range ctx.links {
		ctx.linkMark[l] = false
		ctx.gaps[l] = ctx.gaps[l][:0]
	}
	ctx.links = ctx.links[:0]
}

// gapSearch runs earliestGap through the evaluation memo (when present) and
// records the link dependency.
func (b *builder) gapSearch(ctx *evalCtx, link int32, ready, dur float64) float64 {
	b.ins.gapSearches.Inc()
	if ctx == nil {
		return b.st.linkBusy[link].search(ready, dur)
	}
	if !ctx.linkMark[link] {
		ctx.linkMark[link] = true
		ctx.links = append(ctx.links, link)
	}
	for _, g := range ctx.gaps[link] {
		if g.ready == ready && g.dur == dur {
			b.ins.gapHits.Inc()
			return g.val
		}
	}
	v := b.st.linkBusy[link].search(ready, dur)
	ctx.gaps[link] = append(ctx.gaps[link], gapEntry{ready: ready, dur: dur, val: v})
	return v
}

// cachedEval is one candidate's evaluation carried across steps, with the
// links whose busy sets it depends on (its processors are the static allowed
// set, so they are not recorded per evaluation). Entries live in a flat
// array indexed by op ID; valid distinguishes live entries from retired or
// never-filled slots.
type cachedEval struct {
	ev    evaluation
	links []int32
	valid bool
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

	// Incremental engine state (see DESIGN.md §8 and §13): the ready
	// candidates as ascending op IDs (declaration order), the count of
	// unscheduled strict predecessors per operation, the evaluations carried
	// over from earlier steps, and the processors/links dirtied by the
	// latest commit (bool table + touched list, reset each step).
	cands        []int32
	pendingPreds []int32
	cache        []cachedEval
	touchedProc  []bool
	touchedLink  []bool
	touchedProcL []int32
	touchedLinkL []int32

	ctx     *evalCtx   // serial evaluation scratch, reused every step
	wctx    []*evalCtx // per-worker scratch, lazily grown to b.workers
	planBuf []hopPlan  // commit-path route buffer, reused every transfer

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
	pt, err := pressure.Compute(g, sp)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m, err := compile(g, a, sp, pt)
	if err != nil {
		return nil, err
	}
	b := &builder{
		m: m, opts: opts, mode: mode, k: k,
		st:           newSchedState(m, mode, k),
		pendingPreds: make([]int32, m.nOps),
		cache:        make([]cachedEval, m.nOps),
		touchedProc:  make([]bool, m.nProcs),
		touchedLink:  make([]bool, m.nLinks),
		ctx:          newEvalCtx(m.nLinks),
		minRepl:      math.MaxInt,
	}
	for o := int32(0); o < m.nOps; o++ {
		b.pendingPreds[o] = int32(len(m.predEdges[o]))
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

// replication returns the number of replicas to place for op, or an error
// when the constraints cannot support the requested fault tolerance.
func (b *builder) replication(op int32) (int, error) {
	allowed := len(b.m.allowed[op])
	if allowed == 0 {
		return 0, fmt.Errorf("%w: operation %q has no allowed processor", ErrInfeasible, b.m.opNames[op]) //ftlint:hotalloc-ok error path: an infeasible replication aborts the whole run, so this formats at most once
	}
	if b.mode == sched.ModeBasic {
		return 1, nil
	}
	want := b.k + 1
	if allowed < want {
		if !b.opts.AllowDegraded {
			return 0, fmt.Errorf("%w: operation %q can run on %d processors, %d needed to tolerate %d failures (set AllowDegraded to proceed)", //ftlint:hotalloc-ok error path: an infeasible replication aborts the whole run, so this formats at most once
				ErrInfeasible, b.m.opNames[op], allowed, want, b.k)
		}
		return allowed, nil
	}
	return want, nil
}

// occupyLink records an active transfer on link and marks the link dirty for
// the incremental evaluation cache.
func (b *builder) occupyLink(link int32, start, end float64) {
	b.st.occupy(link, start, end)
	if !b.touchedLink[link] {
		b.touchedLink[link] = true
		b.touchedLinkL = append(b.touchedLinkL, link)
	}
}

// planRoute tentatively schedules the transfer of edge e from src to dst with
// the data ready at the source at date ready, returning the arrival date. It
// performs gap search against the current link occupancy but commits nothing.
// The links consulted are recorded in ctx (when non-nil) so cached
// evaluations can be invalidated once those links change. When plans is
// non-nil the hops are appended to it for a later commitPlans; evaluations
// pass nil and skip building them. Routes and communication durations come
// from the compiled model, which is total, so planning cannot fail.
func (b *builder) planRoute(e, src, dst int32, ready float64, ctx *evalCtx, plans *[]hopPlan) float64 {
	m := b.m
	at, t := src, ready
	for _, h := range m.routes[src*m.nProcs+dst] {
		dur := m.comm[e*m.nLinks+h.link]
		start := b.gapSearch(ctx, h.link, t, dur)
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
			b.occupyLink(h.link, h.start, h.end)
		}
	}
}

// arrival returns the failure-free availability date of edge e's value on
// dstProc under the builder's mode. With commit set, any missing transfers
// (and, in FT1, the passive backup chains) are recorded in the schedule.
func (b *builder) arrival(e, dstProc int32, commit bool, ctx *evalCtx) (float64, error) {
	switch b.mode {
	case sched.ModeBasic:
		return b.basicArrival(e, dstProc, commit, ctx)
	case sched.ModeFT1:
		return b.ft1Arrival(e, dstProc, commit, ctx)
	case sched.ModeFT2:
		return b.ft2Arrival(e, dstProc, commit, ctx)
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

func (b *builder) basicArrival(e, dstProc int32, commit bool, ctx *evalCtx) (float64, error) {
	m := b.m
	reps := b.st.reps[m.edgeSrc[e]]
	if len(reps) == 0 {
		return 0, b.unscheduledPred(e)
	}
	main := &b.st.ops[reps[0]]
	if main.proc == dstProc {
		return main.end, nil
	}
	if d := b.st.deliv[e*m.nProcs+dstProc]; !math.IsNaN(d) {
		return d, nil
	}
	if !commit {
		return b.planRoute(e, main.proc, dstProc, main.end, ctx, nil), nil
	}
	b.planBuf = b.planBuf[:0]
	t := b.planRoute(e, main.proc, dstProc, main.end, ctx, &b.planBuf)
	b.commitPlans(e, main.proc, dstProc, 0, b.planBuf, false, 0)
	b.st.setDeliv(e, dstProc, t)
	return t, nil
}

// ft1Arrival implements the first solution's communication scheme: the main
// replica of the producer sends once (a broadcast on a shared bus, a routed
// transfer otherwise); backup replicas get passive, timeout-guarded
// reservations committed alongside the active transfer.
func (b *builder) ft1Arrival(e, dstProc int32, commit bool, ctx *evalCtx) (float64, error) {
	m := b.m
	src := m.edgeSrc[e]
	if idx := b.st.repOn[src*m.nProcs+dstProc]; idx >= 0 {
		// A replica of the producer runs here: intra-processor communication.
		return b.st.ops[idx].end, nil
	}
	reps := b.st.reps[src]
	if len(reps) == 0 {
		return 0, b.unscheduledPred(e)
	}
	main := &b.st.ops[reps[0]]
	if bus := m.bus[main.proc*m.nProcs+dstProc]; bus >= 0 && !b.opts.NoBroadcast {
		if bc := b.st.bcastEnd[e*m.nLinks+bus]; !math.IsNaN(bc) {
			return bc, nil
		}
		dur := m.comm[e*m.nLinks+bus]
		start := b.gapSearch(ctx, bus, main.end, dur)
		if commit {
			b.st.appendComm(commRec{
				edge: e, link: bus, from: main.proc, to: -1,
				src: main.proc, dst: -1,
				transferID: b.st.newTransferID(), start: start, end: start + dur,
				broadcast: true,
			})
			b.occupyLink(bus, start, start+dur)
			b.st.setBcast(e, bus, start+dur)
			b.ft1PassiveChain(e, bus, -1, start+dur)
		}
		return start + dur, nil
	}
	if d := b.st.deliv[e*m.nProcs+dstProc]; !math.IsNaN(d) {
		return d, nil
	}
	if !commit {
		return b.planRoute(e, main.proc, dstProc, main.end, ctx, nil), nil
	}
	b.planBuf = b.planBuf[:0]
	t := b.planRoute(e, main.proc, dstProc, main.end, ctx, &b.planBuf)
	b.commitPlans(e, main.proc, dstProc, 0, b.planBuf, false, 0)
	b.st.setDeliv(e, dstProc, t)
	b.ft1PassiveChain(e, -1, dstProc, t)
	return t, nil
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
	reps := b.st.reps[m.edgeSrc[e]]
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
// replica of the producer sends to dstProc, except when a replica of the
// producer already runs on dstProc, in which case the value is local and no
// transfer at all is committed for this consumer (Section 7.1).
func (b *builder) ft2Arrival(e, dstProc int32, commit bool, ctx *evalCtx) (float64, error) {
	m := b.m
	reps := b.st.reps[m.edgeSrc[e]]
	if len(reps) == 0 {
		return 0, b.unscheduledPred(e)
	}
	for _, ri := range reps {
		if b.st.ops[ri].proc == dstProc {
			return b.st.ops[ri].end, nil
		}
	}
	best := math.Inf(1)
	for _, ri := range reps {
		r := &b.st.ops[ri]
		if d := b.st.sent[(e*m.nProcs+r.proc)*m.nProcs+dstProc]; !math.IsNaN(d) {
			if d < best {
				best = d
			}
			continue
		}
		var t float64
		if commit {
			b.planBuf = b.planBuf[:0]
			t = b.planRoute(e, r.proc, dstProc, r.end, ctx, &b.planBuf)
			b.commitPlans(e, r.proc, dstProc, r.replica, b.planBuf, false, 0)
			b.st.setSent(e, r.proc, dstProc, t)
		} else {
			t = b.planRoute(e, r.proc, dstProc, r.end, ctx, nil)
		}
		if t < best {
			best = t
		}
	}
	return best, nil
}

// earliestStart evaluates S(n)(op, proc): the earliest date op could start
// on proc given the partial schedule, without committing anything.
func (b *builder) earliestStart(op, proc int32, ctx *evalCtx) (float64, error) {
	t := b.st.procFree[proc]
	for _, pe := range b.m.predEdges[op] {
		at, err := b.arrival(pe.edge, proc, false, ctx)
		if err != nil {
			return 0, err
		}
		if at > t {
			t = at
		}
	}
	return t, nil
}

// commitReplica schedules one replica of op on proc, committing the
// transfers that deliver its inputs, and returns the replica's arena index.
func (b *builder) commitReplica(op, proc int32, rank int) (int32, error) {
	start := b.st.procFree[proc]
	for _, pe := range b.m.predEdges[op] {
		at, err := b.arrival(pe.edge, proc, true, nil)
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
	if !b.touchedProc[proc] {
		b.touchedProc[proc] = true
		b.touchedProcL = append(b.touchedProcL, proc)
	}
	b.st.repOn[op*b.m.nProcs+proc] = idx
	return idx, nil
}

// commitDelayedEdges schedules the state-update transfers of delayed edges
// (edges into mems) once every operation is placed. They do not constrain
// intra-iteration start dates but must still deliver the next-iteration
// value to every replica of the mem.
func (b *builder) commitDelayedEdges() error {
	for _, e := range b.m.delayedEdges {
		for _, ri := range b.st.reps[b.m.edgeDst[e]] {
			if _, err := b.arrival(e, b.st.ops[ri].proc, true, nil); err != nil {
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
	b.cache[op].valid = false
	i := sort.Search(len(b.cands), func(i int) bool { return b.cands[i] >= op })
	b.cands = append(b.cands[:i], b.cands[i+1:]...)
	for _, s := range b.m.succs[op] {
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

// evaluation holds micro-step mSn.1's result for one candidate: the kept
// (processor, sigma) pairs, best first.
type evaluation struct {
	op      int32
	kept    []keptEntry
	urgency float64 // the greatest kept sigma, used at mSn.2
}

// evaluateStep runs micro-step mSn.1 for the current candidates and guards
// the read-only contract: the SoA state's mutation epoch must not move while
// evaluations (serial or pooled) are in flight.
//
// Unseeded runs go through the incremental engine: evaluations from earlier
// steps are reused unless the latest commit dirtied one of the candidate's
// allowed processors or one of the links its route planning consulted; only
// stale candidates are re-evaluated, on a worker pool when one is
// configured. Seeded runs fall back to the full re-evaluation of every
// candidate, because the shared tie-breaking rand stream must be consumed in
// exactly the order the original serial heuristic consumed it.
func (b *builder) evaluateStep() ([]evaluation, error) {
	epoch := b.st.mutEpoch
	var evals []evaluation
	var err error
	if b.rng != nil {
		evals, err = b.evaluateAll(b.cands)
	} else {
		evals, err = b.evaluateIncremental()
	}
	if err != nil {
		return nil, err
	}
	if b.st.mutEpoch != epoch {
		return nil, fmt.Errorf("core: internal error: schedule state mutated during candidate evaluation (epoch %d -> %d)", epoch, b.st.mutEpoch)
	}
	return evals, nil
}

// evaluateIncremental is the unseeded evaluation path: cached evaluations
// are reused unless stale, and the stale set is re-evaluated serially or on
// the worker pool.
func (b *builder) evaluateIncremental() ([]evaluation, error) {
	evals := make([]evaluation, len(b.cands))
	var todo []int
	for i, op := range b.cands {
		if ce := &b.cache[op]; ce.valid {
			if !b.stale(op, ce) {
				evals[i] = ce.ev
				b.ins.cacheHits.Inc()
				continue
			}
			b.ins.cacheInval.Inc()
		}
		todo = append(todo, i)
	}
	for _, p := range b.touchedProcL {
		b.touchedProc[p] = false
	}
	b.touchedProcL = b.touchedProcL[:0]
	for _, l := range b.touchedLinkL {
		b.touchedLink[l] = false
	}
	b.touchedLinkL = b.touchedLinkL[:0]
	if b.workers > 1 && len(todo) > 1 {
		if err := b.evaluateParallel(evals, todo); err != nil {
			return nil, err
		}
		return evals, nil
	}
	for _, i := range todo {
		op := b.cands[i]
		b.ctx.reset()
		ev, err := b.evaluateOne(op, b.ctx)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
		ce := &b.cache[op]
		ce.ev = ev
		ce.links = append(ce.links[:0], b.ctx.links...)
		ce.valid = true
	}
	return evals, nil
}

// evaluateParallel evaluates the stale candidates at the todo indices on a
// bounded worker pool. Workers only read builder state; each owns one
// long-lived evalCtx, and results and dependency sets are merged back in
// index order on the caller's goroutine, so the outcome is identical to the
// serial loop.
func (b *builder) evaluateParallel(evals []evaluation, todo []int) error {
	workers := b.workers
	if workers > len(todo) {
		workers = len(todo)
	}
	b.ins.poolBatches.Inc()
	b.ins.poolEvals.Add(int64(len(todo)))
	b.ins.poolWorkers.Add(int64(workers))
	for len(b.wctx) < workers { //ftlint:allow-nopoll bounded: appends one context per missing worker, so trips <= Options.Workers
		b.wctx = append(b.wctx, newEvalCtx(b.m.nLinks))
	}
	depsOut := make([][]int32, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ctx *evalCtx) {
			defer wg.Done()
			for j := range next {
				ctx.reset()
				ev, err := b.evaluateOne(b.cands[todo[j]], ctx)
				if err != nil {
					errs[j] = err
					continue
				}
				evals[todo[j]] = ev
				// ctx.links is reused for the worker's next job, so the
				// dependency set must be copied out before then.
				depsOut[j] = append([]int32(nil), ctx.links...)
			}
		}(b.wctx[w])
	}
	for j := range todo {
		next <- j
	}
	close(next)
	wg.Wait()
	for j := range todo {
		if errs[j] != nil {
			return errs[j]
		}
		ce := &b.cache[b.cands[todo[j]]]
		ce.ev = evals[todo[j]]
		ce.links = depsOut[j]
		ce.valid = true
	}
	return nil
}

// stale reports whether a cached evaluation may have been invalidated by the
// latest commit: one of the candidate's allowed processors gained work, or a
// link whose occupancy the evaluation's gap searches consulted was occupied
// further.
func (b *builder) stale(op int32, ce *cachedEval) bool {
	if len(b.touchedProcL) > 0 {
		for _, p := range b.m.allowed[op] {
			if b.touchedProc[p] {
				return true
			}
		}
	}
	if len(b.touchedLinkL) > 0 {
		for _, l := range ce.links {
			if b.touchedLink[l] {
				return true
			}
		}
	}
	return false
}

// scoredEntry is one (processor, sigma) evaluation with the completion date
// used for tie-breaking.
type scoredEntry struct {
	proc              int32
	sigma, completion float64
}

// evaluateOne evaluates one candidate with deterministic tie-breaking,
// recording consulted links in ctx. Safe for concurrent use: it only reads
// builder state, and all scratch lives in the caller-owned ctx.
func (b *builder) evaluateOne(op int32, ctx *evalCtx) (evaluation, error) {
	b.ins.evals.Inc()
	repl, err := b.replication(op)
	if err != nil {
		return evaluation{}, err
	}
	entries := ctx.entries[:0]
	for _, p := range b.m.allowed[op] {
		s, err := b.earliestStart(op, p, ctx)
		if err != nil {
			return evaluation{}, err
		}
		entries = append(entries, b.score(op, p, s)) //ftlint:hotalloc-ok amortized: appends into the reused evalCtx.entries buffer, which keeps its capacity across candidates
	}
	ctx.entries = entries
	return b.keepBest(op, entries, repl), nil
}

// score builds the (processor, sigma) entry for op starting at date s on p.
func (b *builder) score(op, p int32, s float64) scoredEntry {
	d := b.m.exec[op*b.m.nProcs+p]
	sigma := b.m.sigma.Sigma(op, s, d)
	if b.opts.NoPressure {
		// Ablation: earliest-finish-time only, no remaining-path term.
		sigma = s + d
	}
	return scoredEntry{
		proc:       p,
		sigma:      sigma,
		completion: s + d,
	}
}

// keepBest sorts the scored entries and keeps the repl smallest pressures.
// Equal pressures are split by earliest completion date, then architecture
// declaration order (the stable sort preserves it — processor IDs are
// declaration indices and entries arrive in ascending ID order). With a seed
// set, equal entries are instead resolved randomly, like the paper's
// "randomly chosen" tie-breaking: the caller shuffles first, so the stable
// sort picks a random representative of each tie group.
func (b *builder) keepBest(op int32, entries []scoredEntry, repl int) evaluation {
	sort.SliceStable(entries, func(i, j int) bool { //ftlint:hotalloc-ok non-escaping: sort.SliceStable invokes the less function without retaining it
		if math.Abs(entries[i].sigma-entries[j].sigma) > eps {
			return entries[i].sigma < entries[j].sigma
		}
		return entries[i].completion < entries[j].completion-eps
	})
	kept := make([]keptEntry, repl)
	for i := range kept {
		kept[i] = keptEntry{proc: entries[i].proc, sigma: entries[i].sigma}
	}
	return evaluation{op: op, kept: kept, urgency: kept[len(kept)-1].sigma}
}

// evaluateAll is the seeded evaluation path: every candidate is re-evaluated
// and the shared rand stream is consumed candidate by candidate, exactly as
// the original serial heuristic did.
func (b *builder) evaluateAll(cands []int32) ([]evaluation, error) {
	out := make([]evaluation, 0, len(cands))
	for _, op := range cands {
		b.ins.evals.Inc()
		repl, err := b.replication(op)
		if err != nil {
			return nil, err
		}
		// The gap memo is exact (occupancies are frozen during evaluation),
		// so it speeds the seeded path without changing any result. The ctx
		// is reset per candidate, matching the old per-candidate memos.
		b.ctx.reset()
		entries := b.ctx.entries[:0]
		for _, p := range b.m.allowed[op] {
			s, err := b.earliestStart(op, p, b.ctx)
			if err != nil {
				return nil, err
			}
			entries = append(entries, b.score(op, p, s))
		}
		b.ctx.entries = entries
		if b.rng != nil {
			for i := len(entries) - 1; i > 0; i-- {
				j := b.rng.Intn(i + 1)
				entries[i], entries[j] = entries[j], entries[i]
			}
		}
		out = append(out, b.keepBest(op, entries, repl))
	}
	return out, nil
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
