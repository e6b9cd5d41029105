package certify

import (
	"fmt"
	"strings"
)

// maxWitnessDepth bounds the recursion of the broken-data-path explanation;
// deeper causes are elided rather than repeated.
const maxWitnessDepth = 8

// witness builds the counterexample for a failing run: the (already
// minimal) failure set plus a step-by-step explanation of why the first
// missing output can no longer be produced.
func (m *model) witness(failed []int32, r *run) *Counterexample {
	c := m.c
	out := r.missing[0]
	w := &witnesser{
		m: m, r: r,
		seenOps:   make([]bool, len(c.OpNames)),
		seenEdges: make([]bool, len(c.Edges)*len(c.ProcNames)),
	}
	w.addf(0, "output %s: no replica executes", c.OpNames[out])
	w.explainOp(out, 1)
	set := make([]string, 0, len(failed))
	for _, p := range m.byName(failed) {
		set = append(set, c.ProcNames[p])
	}
	return &Counterexample{
		FailureSet: set,
		Output:     c.OpNames[out],
		Path:       w.lines,
	}
}

type witnesser struct {
	m         *model
	r         *run
	seenOps   []bool // op -> explained
	seenEdges []bool // edge*P+proc -> explained
	lines     []string
}

func (w *witnesser) addf(depth int, format string, args ...interface{}) {
	w.lines = append(w.lines, strings.Repeat("  ", depth)+fmt.Sprintf(format, args...))
}

// explainOp explains, replica by replica, why no instance of op executes.
func (w *witnesser) explainOp(op int32, depth int) {
	if depth > maxWitnessDepth {
		w.addf(depth, "...")
		return
	}
	c := w.m.c
	name := c.OpNames[op]
	if w.seenOps[op] {
		w.addf(depth, "(%s already explained above)", name)
		return
	}
	w.seenOps[op] = true
	for _, sid := range c.OpInsts[c.OpInstStart[op]:c.OpInstStart[op+1]] {
		in := &c.Insts[sid]
		proc := c.ProcNames[in.Proc]
		switch {
		case w.r.byPid[in.Proc]:
			w.addf(depth, "replica %d of %s on %s: processor failed", in.Replica, name, proc)
		case w.r.executed[sid]:
			w.addf(depth, "replica %d of %s on %s executes, but its value cannot be used", in.Replica, name, proc)
		default:
			lo := c.SeqStart[in.Proc]
			if cur := w.r.cursor[in.Proc]; cur < sid-lo {
				blocker := lo + cur
				w.addf(depth, "replica %d of %s on %s: stuck behind %s in the processor's static sequence", in.Replica, name, proc, c.OpNames[c.Insts[blocker].Op])
				w.explainStall(blocker, depth+1)
			} else {
				w.addf(depth, "replica %d of %s on %s: an input never arrives", in.Replica, name, proc)
				w.explainStall(sid, depth+1)
			}
		}
	}
}

// explainStall explains why instance sid, the head of its processor's
// sequence, cannot start: its first unavailable strict input.
func (w *witnesser) explainStall(sid int32, depth int) {
	if depth > maxWitnessDepth {
		w.addf(depth, "...")
		return
	}
	c := w.m.c
	for k := c.PredStart[sid]; k < c.PredStart[sid+1]; k++ {
		if !w.r.available(&w.m.slotIn[k]) {
			w.explainEdge(sid, k, depth)
			return
		}
	}
	w.addf(depth, "(no single missing input: circular wait)")
}

// explainEdge explains why strict input k of instance sid never becomes
// available on its processor: every local replica and every delivery
// sender is accounted for.
func (w *witnesser) explainEdge(sid, k int32, depth int) {
	c := w.m.c
	pid := c.Insts[sid].Proc
	pred := c.Preds[k]
	e, proc := c.Edges[pred.Edge], c.ProcNames[pid]
	key := int(pred.Edge)*len(c.ProcNames) + int(pid)
	if w.seenEdges[key] {
		w.addf(depth, "(input %s->%s on %s already explained above)", e.Src, e.Dst, proc)
		return
	}
	w.seenEdges[key] = true
	w.addf(depth, "input %s->%s on %s never arrives:", e.Src, e.Dst, proc)
	in := &w.m.slotIn[k]
	producerMissing := false
	if in.localSid >= 0 && !w.r.executed[in.localSid] {
		w.addf(depth+1, "local replica of %s never executes", e.Src)
		producerMissing = true
	}
	for _, did := range in.delivs {
		d := &c.Deliveries[did]
		for xid := d.SendLo; xid < d.SendHi; xid++ {
			sd := &c.Senders[xid]
			src := c.ProcNames[sd.Proc]
			switch {
			case w.r.byPid[sd.Proc]:
				w.addf(depth+1, "sender rank %d from %s: processor failed", sd.Rank, src)
			case w.deadForwarder(xid) >= 0:
				w.addf(depth+1, "sender rank %d from %s: route forwarder %s failed", sd.Rank, src, c.ProcNames[w.deadForwarder(xid)])
			case sd.SrcInst < 0 || !w.r.executed[sd.SrcInst]:
				w.addf(depth+1, "sender rank %d from %s: its producing replica never executes", sd.Rank, src)
				producerMissing = true
			default:
				w.addf(depth+1, "sender rank %d from %s delivers (unexpected)", sd.Rank, src)
			}
		}
	}
	if len(in.delivs) == 0 && in.localSid < 0 {
		w.addf(depth+1, "no transfer of %s->%s targets %s", e.Src, e.Dst, proc)
	}
	if producerMissing {
		w.explainOp(pred.Op, depth+1)
	}
}

// deadForwarder returns the first failed store-and-forward processor on the
// sender's route, or -1.
func (w *witnesser) deadForwarder(xid int32) int32 {
	for _, f := range w.m.cxfers[xid].fwd {
		if w.r.byPid[f] {
			return f
		}
	}
	return -1
}
