package certify

import (
	"math"

	"ftsched/internal/obs"
	"ftsched/internal/sched"
)

// instruments holds the certifier's pre-resolved counters; the zero value is
// the disabled state (every hit is a nil check).
type instruments struct {
	patterns  *obs.Counter // frontier failure patterns fully analyzed
	implied   *obs.Counter // smaller patterns covered by monotone pruning
	rounds    *obs.Counter // fixpoint iterations across all evaluations
	evalsFull *obs.Counter // evaluations through the reference full fixpoint
	evalsIncr *obs.Counter // evaluations through the incremental cone engine
	coneSlots *obs.Counter // dirty slot cells re-propagated by incremental evals
	coneHops  *obs.Counter // dirty queue entries re-propagated by incremental evals
	workers   *obs.Counter // pool workers engaged by parallel frontiers
}

// resolve registers the certifier's counters on the sink (no-op when nil).
func (in *instruments) resolve(s *obs.Sink) {
	if s == nil {
		return
	}
	in.patterns = s.Counter("certify.patterns.checked")
	in.implied = s.Counter("certify.patterns.implied")
	in.rounds = s.Counter("certify.fixpoint.rounds")
	in.evalsFull = s.Counter("certify.evals.full")
	in.evalsIncr = s.Counter("certify.evals.incremental")
	in.coneSlots = s.Counter("certify.cone.dirty.slots")
	in.coneHops = s.Counter("certify.cone.dirty.hops")
	in.workers = s.Counter("certify.pool.workers")
}

// The evaluator runs on the schedule's compiled form (sched.Compiled) plus
// the engine tables below, so a failure-set evaluation is pure array
// arithmetic. Identifiers are the compiled ones: pid = processor, sid =
// instance (operation replica), xid = sender, did = delivery, lid = link,
// hid = queue entry (an active hop; the queue of link lid is
// Queue[QueueStart[lid]:QueueStart[lid+1]]).

// cinput is one strict input of a slot: the producer's local replica (if
// co-located) and the deliveries that can provide the value remotely.
type cinput struct {
	localSid int32 // sid of the producer's replica on the same processor, -1 if none
	delivs   []int32
}

// cxfer is a sender's evaluation view.
type cxfer struct {
	fwd  []int32 // store-and-forward pids that must survive
	dur  float64 // end-to-end route duration (failover activation)
	hops []int32 // active hop ids, route order
	last int32   // final active hop, -1 if none
}

// model caches the schedule structure shared by every failure-set
// evaluation. After prepareIncremental it also carries the failure-free
// fixpoint, the per-processor impact cones, and the failure-free link-drain
// dates the incremental engine seeds from; all of that is read-only during
// the frontier, so pool workers share it without locks.
type model struct {
	c *sched.Compiled

	slotIn    []cinput  // Preds index -> strict input
	slotXfers [][]int32 // sid -> xids the slot's value feeds
	consSids  [][]int32 // did -> consuming slots on the receiving processors
	cxfers    []cxfer
	hopPrev   []int32   // hid -> data source: prev active hid, -1 producer, -2 never queue-fed
	hopLid    []int32   // hid -> lid
	hopDur    []float64 // hid -> hop duration
	viaXfers  [][]int32 // pid -> xids that die with the processor (src or forwarder)
	order     []int32   // date relaxation visiting order: sid, or ^hid for a queue entry
	zerosP    []int32   // all-zero per-pid boundaries (full-scope propagation)
	zerosL    []int32
	allPids   []int32
	allLids   []int32

	ff        *run        // failure-free fixpoint (nil until prepareIncremental)
	cones     []*cone     // pid -> impact cone
	freeAfter [][]float64 // lid -> ff link-drain date entering each queue position

	obs *obs.Sink
	ins instruments
}

// csr carves per-key lists out of one backing array: count every entry
// with add, call layout, then place the entries in list order with put.
// Each list is a capacity-clipped window, so the tables allocate once per
// kind instead of once per list.
type csr struct {
	start, fill, vals []int32
}

func newCSR(keys int) *csr { return &csr{start: make([]int32, keys+1)} }

func (t *csr) add(k int) { t.start[k+1]++ }

func (t *csr) layout() {
	for k := 1; k < len(t.start); k++ {
		t.start[k] += t.start[k-1]
	}
	t.fill = append([]int32(nil), t.start[:len(t.start)-1]...)
	t.vals = make([]int32, t.start[len(t.start)-1])
}

func (t *csr) put(k int, v int32) {
	t.vals[t.fill[k]] = v
	t.fill[k]++
}

// list returns key k's entries.
func (t *csr) list(k int) []int32 {
	lo, hi := t.start[k], t.start[k+1]
	return t.vals[lo:hi:hi]
}

// lists returns every key's entries.
func (t *csr) lists() [][]int32 {
	out := make([][]int32, len(t.start)-1)
	for k := range out {
		out[k] = t.list(k)
	}
	return out
}

// newModel builds the engine tables over the compiled schedule. All
// identifier orders are the compiled ones, so the tables — and every
// evaluation over them — are reproducible.
func newModel(c *sched.Compiled) *model {
	P, L := len(c.ProcNames), len(c.LinkNames)
	m := &model{c: c}

	// Deliveries observed by each (edge, receiver), in delivery order, and
	// each delivery's consuming slots.
	byDst := newCSR(len(c.Edges) * P)
	cons := newCSR(len(c.Deliveries))
	receptions := func(visit func(did, k int, sid int32)) {
		for did, d := range c.Deliveries {
			for _, rcv := range c.Receivers[d.RcvLo:d.RcvHi] {
				visit(did, int(d.Edge)*P+int(rcv), c.InstAt[int(d.DstOp)*P+int(rcv)])
			}
		}
	}
	receptions(func(did, k int, sid int32) {
		byDst.add(k)
		if sid >= 0 {
			cons.add(did)
		}
	})
	byDst.layout()
	cons.layout()
	receptions(func(did, k int, sid int32) {
		byDst.put(k, int32(did))
		if sid >= 0 {
			cons.put(did, sid)
		}
	})
	m.consSids = cons.lists()
	m.slotIn = make([]cinput, len(c.Preds))
	for sid, in := range c.Insts {
		for k := c.PredStart[sid]; k < c.PredStart[sid+1]; k++ {
			pr := c.Preds[k]
			m.slotIn[k] = cinput{
				localSid: c.InstAt[int(pr.Op)*P+int(in.Proc)],
				delivs:   byDst.list(int(pr.Edge)*P + int(in.Proc)),
			}
		}
	}

	// Senders. A route's hop identity preserves the original (possibly
	// passive-interleaved) indexing through hopPrev: the previous active
	// hop feeds the next, the producing replica feeds an initial hop, and
	// a hop behind a passive one is never queue-fed (matching the reference
	// date equations).
	hopQ := make([]int32, len(c.Hops)) // hop -> hid, -1 if passive
	for i := range hopQ {
		hopQ[i] = -1
	}
	m.hopLid = make([]int32, len(c.Queue))
	m.hopDur = make([]float64, len(c.Queue))
	for lid := 0; lid < L; lid++ {
		for hid := c.QueueStart[lid]; hid < c.QueueStart[lid+1]; hid++ {
			en := c.Queue[hid]
			h := c.Senders[en.Sender].HopLo + en.Hop
			hopQ[h] = hid
			m.hopLid[hid] = int32(lid)
			m.hopDur[hid] = c.Hops[h].Dur
		}
	}
	m.hopPrev = make([]int32, len(c.Queue))
	m.cxfers = make([]cxfer, len(c.Senders))
	slotXfers := newCSR(len(c.Insts))
	via := newCSR(P)
	for _, sd := range c.Senders {
		via.add(int(sd.Proc))
		for h := sd.HopLo + 1; h < sd.HopHi; h++ {
			via.add(int(c.Hops[h].From))
		}
		if sd.SrcInst >= 0 {
			slotXfers.add(int(sd.SrcInst))
		}
	}
	via.layout()
	slotXfers.layout()
	// Every sender's forwarders and active hops are windows of fwd and
	// hops, in sender order.
	fwd := make([]int32, 0, len(c.Hops))
	hops := make([]int32, 0, len(c.Queue))
	for xid, sd := range c.Senders {
		x := &m.cxfers[xid]
		x.last = -1
		via.put(int(sd.Proc), int32(xid))
		fwdLo, hopsLo := len(fwd), len(hops)
		for h := sd.HopLo; h < sd.HopHi; h++ {
			x.dur += c.Hops[h].Dur
			if h > sd.HopLo {
				f := c.Hops[h].From
				fwd = append(fwd, f)
				via.put(int(f), int32(xid))
			}
			hid := hopQ[h]
			if hid < 0 {
				continue
			}
			hops = append(hops, hid)
			x.last = hid
			switch {
			case h == sd.HopLo:
				m.hopPrev[hid] = -1 // fed by the producing replica
			case hopQ[h-1] >= 0:
				m.hopPrev[hid] = hopQ[h-1]
			default:
				m.hopPrev[hid] = -2 // behind a passive hop: never queue-fed
			}
		}
		if len(fwd) > fwdLo {
			x.fwd = fwd[fwdLo:len(fwd):len(fwd)]
		}
		if len(hops) > hopsLo {
			x.hops = hops[hopsLo:len(hops):len(hops)]
		}
		if sd.SrcInst >= 0 {
			slotXfers.put(int(sd.SrcInst), int32(xid))
		}
	}
	m.slotXfers = slotXfers.lists()
	m.viaXfers = via.lists()

	m.buildOrder()

	// Full-scope iteration lists and zero boundaries.
	m.allPids = make([]int32, P)
	m.zerosP = make([]int32, P)
	for i := range m.allPids {
		m.allPids[i] = int32(i)
	}
	m.allLids = make([]int32, L)
	m.zerosL = make([]int32, L)
	for i := range m.allLids {
		m.allLids[i] = int32(i)
	}
	return m
}

// buildOrder merges every processor's static sequence and every link's
// static queue into the one order the date relaxation visits, by static
// start date; ties go to slots before hops, then to the lower processor
// (link) ID. Each resource contributes its own sequence front to back, so
// the merge keeps the per-resource orders (SeqStart for slots, SendsBefore
// for queues) even where SendsBefore's 1e-9 tolerance inverts two dates.
// Visiting units this way lets most dates settle in one sweep, because a
// unit's inputs mostly start earlier in the static schedule.
func (m *model) buildOrder() {
	c := m.c
	P, L := len(c.ProcNames), len(c.LinkNames)
	// next[r] is the next unit of resource r: a sid for processors r < P,
	// a hid for link r-P.
	next := make([]int32, P+L)
	copy(next, c.SeqStart[:P])
	copy(next[P:], c.QueueStart[:L])
	n := len(c.Insts) + len(c.Queue)
	m.order = make([]int32, 0, n)
	for len(m.order) < n {
		best, bestAt := -1, 0.0
		for r := range next {
			var at float64
			if r < P {
				if next[r] == c.SeqStart[r+1] {
					continue
				}
				at = c.Insts[next[r]].Start
			} else {
				if next[r] == c.QueueStart[r-P+1] {
					continue
				}
				at = c.QueueDates[next[r]]
			}
			if best < 0 || at < bestAt {
				best, bestAt = r, at
			}
		}
		u := next[best]
		next[best]++
		if best >= P {
			u = ^u
		}
		m.order = append(m.order, u)
	}
}

// seqLen returns the length of processor pid's static sequence.
func (m *model) seqLen(pid int32) int32 {
	return m.c.SeqStart[pid+1] - m.c.SeqStart[pid]
}

// queue returns the hids of link lid in static communication order.
func (m *model) queue(lid int32) (lo, hi int32) {
	return m.c.QueueStart[lid], m.c.QueueStart[lid+1]
}

// prepareIncremental arms the incremental engine: it keeps the failure-free
// fixpoint as the state every pattern evaluation is cloned from, precomputes
// the per-position link-drain dates the partial queue relaxations seed with,
// and builds the per-processor impact cones.
func (m *model) prepareIncremental(ff *run) {
	m.ff = ff
	m.freeAfter = make([][]float64, len(m.allLids))
	for _, lid := range m.allLids {
		lo, hi := m.queue(lid)
		fa := make([]float64, hi-lo+1)
		free := 0.0
		for hid := lo; hid < hi; hid++ {
			fa[hid-lo] = free
			if ff.delivers(m.c.Queue[hid].Sender) {
				free = ff.hopEnd[hid]
			}
		}
		fa[hi-lo] = free
		m.freeAfter[lid] = fa
	}
	m.cones = make([]*cone, len(m.allPids))
	for pid := range m.cones {
		m.cones[pid] = m.buildCone(pid)
	}
}

// dateEq reports near-equality of propagated dates, treating two +Inf
// estimates as equal.
func dateEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) < 1e-9
}
