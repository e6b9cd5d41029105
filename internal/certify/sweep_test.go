package certify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// propagateRoundRobin is the reference date relaxation the static-order
// sweep replaced: each round relaxes every in-scope link queue, then every
// alive processor's executed prefix, until no date moves. A date crosses
// one processor→link→processor boundary per round, so it takes many more
// rounds than the sweep; it must reach the same dates bit for bit.
func (r *run) propagateRoundRobin(pids []int32, fromP []int32, lids []int32, fromL []int32) {
	m := r.m
	for xid := range r.deliv {
		r.deliv[xid] = r.delivers(int32(xid))
	}
	n := 0
	for _, pid := range pids {
		if r.byPid[pid] {
			continue
		}
		lo := m.c.SeqStart[pid]
		for i := fromP[pid]; i < r.cursor[pid]; i++ {
			r.end[lo+i] = math.Inf(1)
			n++
		}
	}
	for _, lid := range lids {
		lo, hi := m.queue(lid)
		for hid := lo + fromL[lid]; hid < hi; hid++ {
			if r.delivers(m.c.Queue[hid].Sender) {
				r.hopEnd[hid] = math.Inf(1)
			}
			n++
		}
	}
	for round := 0; round <= n+1; round++ {
		changed := false
		for _, lid := range lids {
			from := fromL[lid]
			free := 0.0
			if from > 0 {
				free = m.freeAfter[lid][from]
			}
			if r.relaxLink(lid, from, free) {
				changed = true
			}
		}
		for _, pid := range pids {
			if r.byPid[pid] {
				continue
			}
			from := fromP[pid]
			if from >= r.cursor[pid] {
				continue
			}
			t := 0.0
			if from > 0 {
				t = r.end[m.c.SeqStart[pid]+from-1]
			}
			if r.relaxProc(pid, from, t) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	r.computeResp()
}

// relaxLink recomputes the hop-end dates of a link's queue from position
// `from`, seeding the link-drain date with `free`. Returns whether any date
// moved.
func (r *run) relaxLink(lid int32, from int32, free float64) bool {
	m := r.m
	changed := false
	lo, hi := m.queue(lid)
	for hid := lo + from; hid < hi; hid++ {
		xid := m.c.Queue[hid].Sender
		if !r.delivers(xid) {
			continue
		}
		ready := math.Inf(1)
		switch prev := m.hopPrev[hid]; prev {
		case -1:
			ready = 0
			if sid := m.c.Senders[xid].SrcInst; r.executed[sid] {
				ready = r.end[sid]
			}
		case -2:
		default:
			ready = r.hopEnd[prev]
		}
		end := math.Max(ready, free) + m.hopDur[hid]
		if !dateEq(end, r.hopEnd[hid]) {
			r.hopEnd[hid] = end
			changed = true
		}
		free = end
	}
	return changed
}

// relaxProc recomputes the completion dates of a processor's executed slots
// in [from, cursor), seeding the processor-busy date with t. Returns whether
// any date moved.
func (r *run) relaxProc(pid int32, from int32, t float64) bool {
	m := r.m
	changed := false
	lo := m.c.SeqStart[pid]
	for sid := lo + from; sid < lo+r.cursor[pid]; sid++ {
		start := t
		for k := m.c.PredStart[sid]; k < m.c.PredStart[sid+1]; k++ {
			if at := r.availDate(&m.slotIn[k]); at > start {
				start = at
			}
		}
		in := &m.c.Insts[sid]
		end := start + (in.End - in.Start)
		if !dateEq(end, r.end[sid]) {
			r.end[sid] = end
			changed = true
		}
		t = end
	}
	return changed
}

// clone returns an independent copy of the run's state.
func (r *run) clone() *run {
	cp := r.m.newRun(nil, r.detect)
	copy(cp.byPid, r.byPid)
	copy(cp.cursor, r.cursor)
	copy(cp.executed, r.executed)
	copy(cp.end, r.end)
	copy(cp.hopEnd, r.hopEnd)
	copy(cp.deliv, r.deliv)
	cp.completed, cp.resp = r.completed, r.resp
	cp.missing = append([]int32(nil), r.missing...)
	return cp
}

// coneScope returns the propagation scope evalIncr derives for the run's
// failure set.
func (r *run) coneScope() (pids, fromP, lids, fromL []int32) {
	m := r.m
	u := r.unionCone()
	for _, pid := range m.allPids {
		if u.procFrom[pid] < m.seqLen(pid) {
			pids = append(pids, pid)
		}
	}
	for _, lid := range m.allLids {
		if lo, hi := m.queue(lid); u.linkFrom[lid] < hi-lo {
			lids = append(lids, lid)
		}
	}
	return pids, u.procFrom, lids, u.linkFrom
}

// sameBits reports whether two date vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRoundRobin re-derives the dates of an evaluated run with the
// reference relaxation over the same scope and fails unless end, hopEnd,
// resp and completed are bit-identical. Propagation writes only in-scope
// dates and registers them at +Inf first, so re-propagating a copy of the
// finished run is the same as propagating the pre-relaxation state.
func checkAgainstRoundRobin(t *testing.T, label string, got *run, pids, fromP, lids, fromL []int32) {
	t.Helper()
	for xid := range got.deliv {
		if got.completed && got.deliv[xid] != got.delivers(int32(xid)) {
			t.Fatalf("%s: delivers table stale for sender %d", label, xid)
		}
	}
	want := got.clone()
	if want.completed {
		want.propagateRoundRobin(pids, fromP, lids, fromL)
	}
	if got.completed != want.completed {
		t.Errorf("%s: completed %v, reference %v", label, got.completed, want.completed)
	}
	if !sameBits(got.end, want.end) {
		t.Errorf("%s: slot dates differ from the round-robin reference:\n got %v\nwant %v", label, got.end, want.end)
	}
	if !sameBits(got.hopEnd, want.hopEnd) {
		t.Errorf("%s: hop dates differ from the round-robin reference:\n got %v\nwant %v", label, got.hopEnd, want.hopEnd)
	}
	if math.Float64bits(got.resp) != math.Float64bits(want.resp) {
		t.Errorf("%s: resp %v, reference %v", label, got.resp, want.resp)
	}
}

// failureSets returns every failure set of at most k of the model's
// processors, in enumeration order.
func (m *model) failureSets(k int) [][]int32 {
	var sets [][]int32
	for size := 0; size <= k && size <= len(m.allPids); size++ {
		enum := newPatternEnum(len(m.allPids), size)
		for sub := enum.next(); sub != nil; sub = enum.next() {
			sets = append(sets, sub)
		}
	}
	return sets
}

// compileModel schedules the problem and builds the certifier's model for
// it, or reports why the draw is unusable.
func compileModel(h core.Heuristic, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int) (*model, error) {
	res, err := core.Schedule(h, g, a, sp, k, core.Options{})
	if err != nil {
		return nil, err
	}
	c, err := sched.Compile(res.Schedule, g, a, sp)
	if err != nil {
		return nil, err
	}
	return newModel(c), nil
}

// TestSweepMatchesRoundRobin pins the static-order sweep to the round-robin
// relaxation it replaced: on layered and fork-join graphs over a bus, a
// ring and a mesh, for Basic, FT1 and FT2 schedules, every failure set of
// at most K processors must get bit-identical dates from both, through the
// full engine and through the incremental one.
func TestSweepMatchesRoundRobin(t *testing.T) {
	type shape struct {
		name string
		g    func() (*graph.Graph, error)
	}
	shapes := []shape{
		{"layered", func() (*graph.Graph, error) {
			return workload.LayeredDAG(rand.New(rand.NewSource(5)),
				workload.GraphParams{Ops: 18, Width: 4, EdgeProb: 0.4, WithIO: true})
		}},
		{"forkjoin", func() (*graph.Graph, error) { return workload.ForkJoin(3, 3) }},
	}
	archs := []struct {
		name string
		a    func() (*arch.Architecture, error)
	}{
		{"bus", func() (*arch.Architecture, error) { return workload.BusArch(5) }},
		{"ring6", func() (*arch.Architecture, error) { return workload.Ring(6) }},
		{"mesh", func() (*arch.Architecture, error) { return workload.FullMesh(4) }},
	}
	compared := 0
	for si, sh := range shapes {
		for ai, ar := range archs {
			g, err := sh.g()
			if err != nil {
				t.Fatal(err)
			}
			a, err := ar.a()
			if err != nil {
				t.Fatal(err)
			}
			sp, err := workload.Costs(rand.New(rand.NewSource(int64(10*si+ai+1))), g, a,
				workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
				for k := 1; k <= 2; k++ {
					schedK := k
					if h == core.Basic {
						schedK = 0
					}
					m, err := compileModel(h, g, a, sp, schedK)
					if err != nil {
						continue // infeasible draw: nothing to compare
					}
					ff := m.evalFull(nil, false)
					if ff.completed {
						m.prepareIncremental(ff)
					}
					for _, set := range m.failureSets(k) {
						for _, detect := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s/%v/K%d/%v/detect=%v", sh.name, ar.name, h, k, set, detect)
							full := m.evalFull(set, detect)
							checkAgainstRoundRobin(t, label+"/full", full, m.allPids, m.zerosP, m.allLids, m.zerosL)
							compared++
							if m.ff == nil {
								continue
							}
							incr := m.evalIncr(set, detect)
							pids, fromP, lids, fromL := incr.coneScope()
							checkAgainstRoundRobin(t, label+"/incr", incr, pids, fromP, lids, fromL)
						}
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no schedule was feasible: nothing compared")
	}
}

// TestFT1BusSettlesInTwoSweeps pins the sweep's round count, a host-
// independent measure of the relaxation's cost: on FT1 bus schedules every
// full-scope propagation settles in one sweep plus the confirming one. The
// round-robin relaxation needs 3–4 rounds on the paper's example and 7–13
// on the random shapes.
func TestFT1BusSettlesInTwoSweeps(t *testing.T) {
	type problem struct {
		name string
		g    *graph.Graph
		a    *arch.Architecture
		sp   *spec.Spec
		k    int
	}
	bus := paperex.BusInstance()
	problems := []problem{{name: "paper-bus", g: bus.Graph, a: bus.Arch, sp: bus.Spec, k: 1}}
	for _, s := range []struct{ ops, procs, k int }{{40, 4, 1}, {60, 6, 2}, {100, 8, 1}} {
		in, err := workload.RandomInstance(rand.New(rand.NewSource(int64(s.ops))), s.ops, s.procs, true, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, problem{
			name: fmt.Sprintf("random-%dx%d", s.ops, s.procs), g: in.Graph, a: in.Arch, sp: in.Spec, k: s.k,
		})
	}
	for _, p := range problems {
		m, err := compileModel(core.FT1, p.g, p.a, p.sp, p.k)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sink := obs.NewSink()
		m.ins.resolve(sink)
		propagated := 0
		for _, set := range m.failureSets(p.k) {
			for _, detect := range []bool{false, true} {
				r := m.newRun(set, detect)
				r.chain(m.allPids)
				r.finish()
				if !r.completed {
					continue
				}
				before := m.ins.rounds.Value()
				r.propagate(m.allPids, m.zerosP, m.allLids, m.zerosL)
				if rounds := m.ins.rounds.Value() - before; rounds > 2 {
					t.Errorf("%s: failure set %v (detect=%v) took %d rounds, want at most 2", p.name, set, detect, rounds)
				}
				propagated++
			}
		}
		if propagated == 0 {
			t.Errorf("%s: no failure set completed: nothing propagated", p.name)
		}
	}
}
