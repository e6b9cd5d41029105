package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

func TestEarliestGap(t *testing.T) {
	busy := []interval{{1, 2}, {3, 5}, {6, 7}}
	cases := []struct {
		ready, dur, want float64
	}{
		{0, 1, 0},   // fits before first interval
		{0, 1.5, 7}, // too big for every gap, lands after the last
		{0, 0.5, 0}, // fits at origin
		{1.5, 0.5, 2},
		{2, 1, 2},   // exactly fills the [2,3] gap
		{4, 1, 5},   // inside a busy window, shifts to its end
		{10, 3, 10}, // after everything
		{5.5, 0.5, 5.5},
	}
	for _, c := range cases {
		if got := earliestGap(busy, c.ready, c.dur); got != c.want {
			t.Errorf("earliestGap(ready=%v,dur=%v) = %v, want %v", c.ready, c.dur, got, c.want)
		}
	}
	if got := earliestGap(nil, 3, 1); got != 3 {
		t.Errorf("empty link: %v", got)
	}
}

func TestInsertIntervalKeepsOrder(t *testing.T) {
	var busy []interval
	for _, iv := range []interval{{3, 4}, {1, 2}, {5, 6}, {0, 0.5}} {
		busy = insertInterval(busy, iv.start, iv.end)
	}
	for i := 1; i < len(busy); i++ {
		if busy[i-1].start > busy[i].start {
			t.Fatalf("intervals out of order: %v", busy)
		}
	}
}

// TestGapSearchWithZeroLengthTransfers: a zero-duration transfer shares its
// date with the longer transfer placed next to it. The busy list must stay
// ordered by end as well, or the searches' binary search skips a busy
// interval and a later transfer lands on top of it.
func TestGapSearchWithZeroLengthTransfers(t *testing.T) {
	var occ occupancy
	occ.insert(3, 3)
	occ.insert(3, 3.5)
	if got := occ.search(3, 0.5); got != 3.5 {
		t.Errorf("search after [3,3] and [3,3.5] = %v, want 3.5 (busy %v)", got, occ.busy)
	}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var occ occupancy
		for i := 0; i < int(n%30)+1; i++ {
			ready := float64(r.Intn(6))   // integer dates make shared starts common
			dur := float64(r.Intn(3)) / 2 // 0, 0.5 or 1
			start := occ.search(ready, dur)
			if start != earliestGap(occ.busy, ready, dur) || start < ready {
				return false
			}
			for _, iv := range occ.busy {
				if start < iv.end-1e-9 && iv.start < start+dur-1e-9 {
					return false
				}
			}
			occ.insert(start, start+dur)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGapNeverOverlaps(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var busy []interval
		for i := 0; i < int(n%20)+1; i++ {
			ready := r.Float64() * 10
			dur := r.Float64() + 0.01
			start := earliestGap(busy, ready, dur)
			if start < ready-1e-9 {
				return false
			}
			// The chosen window must not overlap any busy interval.
			for _, iv := range busy {
				if start < iv.end-1e-9 && iv.start < start+dur-1e-9 {
					return false
				}
			}
			busy = insertInterval(busy, start, start+dur)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKeepsMatchesSearch is the property behind the cross-step route
// memo: after every insert, each memo entry that occupancy.keeps lets
// stand must equal a fresh search. Inserts are gap-search fits on half-unit
// dates, so zero-length transfers and equal-start ties are common; some
// requests are sized a half eps over an existing gap, so the tolerant fit
// overlaps its successor and clears the list's clean flag. Half the runs sit
// at dates near 1e7, where the float spacing exceeds eps.
func TestQuickKeepsMatchesSearch(t *testing.T) {
	type entry struct {
		ready, dur, val float64
		pos             int32
	}
	var kept, refilled, unclean int
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		base := float64(r.Intn(2)) * 1e7
		occ := occupancy{logged: true}
		var entries []entry
		request := func() (float64, float64) {
			ready := base + float64(r.Intn(16))/2
			dur := float64(r.Intn(4)) / 2 // 0 to 1.5
			if j := 1 + r.Intn(len(occ.busy)+1); j < len(occ.busy) && r.Intn(4) == 0 {
				ready = occ.busy[j-1].end
				dur = occ.busy[j].start - ready + eps/2
			}
			return ready, dur
		}
		for i := 0; i < int(n%40)+1; i++ {
			for j := 0; j < 3; j++ {
				ready, dur := request()
				entries = append(entries, entry{ready, dur, occ.search(ready, dur), int32(len(occ.log))})
			}
			ready, dur := request()
			start := occ.search(ready, dur)
			occ.insert(start, start+dur)
			for k := range entries {
				e := &entries[k]
				fresh := occ.search(e.ready, e.dur)
				if fresh != earliestGap(occ.busy, e.ready, e.dur) {
					return false
				}
				if occ.keeps(e.pos, e.ready, e.dur, e.val) {
					if fresh != e.val {
						return false
					}
					kept++
				} else {
					e.val = fresh
					refilled++
				}
				e.pos = int32(len(occ.log))
			}
		}
		if occ.unclean {
			unclean++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if kept == 0 || refilled == 0 || unclean == 0 {
		t.Fatalf("property left a branch unexercised: kept %d, refilled %d, unclean runs %d", kept, refilled, unclean)
	}
}

// memFixture builds a control loop with state: in -> step -> out, with a mem
// feeding step and updated by step.
func memFixture(t *testing.T) (*graph.Graph, *arch.Architecture, *spec.Spec) {
	t.Helper()
	g := graph.New("loop")
	if err := g.AddExtIO("in"); err != nil {
		t.Fatal(err)
	}
	_ = g.AddComp("step")
	_ = g.AddMem("state")
	_ = g.AddExtIO("out")
	for _, e := range [][2]string{{"in", "step"}, {"state", "step"}, {"step", "state"}, {"step", "out"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	a := arch.New("a")
	for _, p := range []string{"P1", "P2", "P3"} {
		_ = a.AddProcessor(p)
	}
	if err := a.AddBus("bus", "P1", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	sp := spec.New()
	for _, op := range []string{"in", "step", "state", "out"} {
		for _, p := range []string{"P1", "P2", "P3"} {
			_ = sp.SetExec(op, p, 1)
		}
	}
	for _, e := range g.Edges() {
		_ = sp.SetCommUniform(a, e.Key(), 0.5)
	}
	return g, a, sp
}

func TestMemFeedbackLoopSchedules(t *testing.T) {
	g, a, sp := memFixture(t)
	for _, h := range []Heuristic{Basic, FT1, FT2} {
		r, err := Schedule(h, g, a, sp, 1, Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := r.Schedule.Validate(g, a, sp); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		// The delayed edge step->state must produce a state-update transfer
		// to every mem replica not colocated with a replica of step.
		for _, mrep := range r.Schedule.Replicas("state") {
			if r.Schedule.ReplicaOn("step", mrep.Proc) != nil {
				continue // intra-processor update
			}
			found := false
			for _, hops := range r.Schedule.Transfers() {
				last := hops[len(hops)-1]
				if last.Edge.Src != "step" || last.Edge.Dst != "state" || last.Passive {
					continue
				}
				if last.DstProc == mrep.Proc || last.Broadcast {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: no state-update transfer to mem replica on %q", h, mrep.Proc)
			}
		}
	}
}

func TestSelectCandidatePicksMaxUrgency(t *testing.T) {
	b := &builder{}
	evals := []evaluation{
		{op: 0, urgency: -2},
		{op: 1, urgency: -1},
		{op: 2, urgency: -3},
	}
	if got := b.selectCandidate(evals); got != 1 {
		t.Errorf("selectCandidate = %d, want 1 (op 1)", got)
	}
}

func TestSelectCandidateTieDeterministic(t *testing.T) {
	b := &builder{}
	evals := []evaluation{
		{op: 0, urgency: -1},
		{op: 1, urgency: -1},
	}
	if got := b.selectCandidate(evals); got != 0 {
		t.Errorf("deterministic tie-break = %d, want 0 (first declared)", got)
	}
}

func TestSelectCandidateTieRandomized(t *testing.T) {
	evals := []evaluation{
		{op: 0, urgency: -1},
		{op: 1, urgency: -1},
		{op: 2, urgency: -1},
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 30; seed++ {
		b := &builder{rng: rand.New(rand.NewSource(seed))}
		seen[b.selectCandidate(evals)] = true
	}
	if len(seen) < 2 {
		t.Errorf("randomized tie-break never varied: %v", seen)
	}
}

// randomInstance generates a random layered problem for property tests.
func randomInstance(r *rand.Rand, nOps, nProcs int, bus bool) (*graph.Graph, *arch.Architecture, *spec.Spec) {
	g := graph.New("rand")
	for i := 0; i < nOps; i++ {
		_ = g.AddComp(fmt.Sprintf("op%d", i))
	}
	for i := 0; i < nOps; i++ {
		for j := i + 1; j < nOps; j++ {
			if r.Intn(3) == 0 {
				_ = g.Connect(fmt.Sprintf("op%d", i), fmt.Sprintf("op%d", j))
			}
		}
	}
	a := arch.New("rand")
	procs := make([]string, nProcs)
	for i := range procs {
		procs[i] = fmt.Sprintf("P%d", i)
		_ = a.AddProcessor(procs[i])
	}
	if bus {
		_ = a.AddBus("bus", procs...)
	} else {
		for i := 0; i < nProcs; i++ {
			for j := i + 1; j < nProcs; j++ {
				_ = a.AddLink(fmt.Sprintf("L%d_%d", i, j), procs[i], procs[j])
			}
		}
	}
	sp := spec.New()
	for _, op := range g.OpNames() {
		for _, p := range procs {
			_ = sp.SetExec(op, p, 0.5+r.Float64()*3)
		}
	}
	for _, e := range g.Edges() {
		_ = sp.SetCommUniform(a, e.Key(), 0.1+r.Float64())
	}
	return g, a, sp
}

func TestQuickAllHeuristicsProduceValidSchedules(t *testing.T) {
	f := func(seed int64, szOps, szProcs uint8, bus bool, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nOps := int(szOps%10) + 2
		nProcs := int(szProcs%3) + 2
		k := int(kRaw) % nProcs // K+1 <= nProcs so always feasible
		g, a, sp := randomInstance(r, nOps, nProcs, bus)
		for _, h := range []Heuristic{Basic, FT1, FT2} {
			res, err := Schedule(h, g, a, sp, k, Options{})
			if err != nil {
				t.Logf("seed=%d h=%v: %v", seed, h, err)
				return false
			}
			if err := res.Schedule.Validate(g, a, sp); err != nil {
				t.Logf("seed=%d h=%v invalid: %v", seed, h, err)
				return false
			}
			if res.Schedule.Makespan() <= 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFTReplicationDegree(t *testing.T) {
	f := func(seed int64, szOps uint8, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nOps := int(szOps%8) + 2
		nProcs := 4
		k := int(kRaw % 3)
		g, a, sp := randomInstance(r, nOps, nProcs, true)
		for _, h := range []Heuristic{FT1, FT2} {
			res, err := Schedule(h, g, a, sp, k, Options{})
			if err != nil {
				return false
			}
			for _, op := range g.OpNames() {
				if got := len(res.Schedule.Replicas(op)); got != k+1 {
					t.Logf("seed=%d h=%v op=%s replicas=%d want=%d", seed, h, op, got, k+1)
					return false
				}
			}
			if res.MinReplication != k+1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFT1ActiveSendersAreMains(t *testing.T) {
	f := func(seed int64, szOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, a, sp := randomInstance(r, int(szOps%8)+2, 3, true)
		res, err := ScheduleFT1(g, a, sp, 1, Options{})
		if err != nil {
			return false
		}
		for _, l := range res.Schedule.Links() {
			for _, c := range res.Schedule.LinkSlots(l) {
				if !c.Passive && c.SenderRank != 0 {
					return false
				}
				if c.Passive && c.SenderRank == 0 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNewBuilderAllocs pins the allocations of a schedule's set-up
// (validation, pressure table, compilation, state) on the design
// workload's 300-operation FT2 full-mesh problem: a constant, never one
// per operation, edge or edge × link pair. The graph's ID form is built on
// the first run and read by the measured ones; TestBuildIDsAllocs
// (internal/graph) pins its own allocations.
func TestNewBuilderAllocs(t *testing.T) {
	in, err := workload.RandomInstance(rand.New(rand.NewSource(7919*6+3)), 300, 8, false, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := newBuilder(in.Graph, in.Arch, in.Spec, sched.ModeFT2, 1, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 120 // 96 measured, with a quarter's margin
	t.Logf("%d ops, %d edges: %.0f allocs (limit %d)", in.Graph.NumOps(), in.Graph.NumEdges(), allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("newBuilder made %.0f allocations, pinned at %d", allocs, limit)
	}
}

// scheduleAllocs is the allocation count of one serial Schedule on each
// 100-op random instance of TestScheduleAllocs, as recorded at d19295c.
var scheduleAllocs = map[string]float64{
	"4/bus/basic": 1008, "4/bus/ft1": 1504, "4/bus/ft2": 1592,
	"4/mesh/basic": 1135, "4/mesh/ft1": 1802, "4/mesh/ft2": 1826,
	"8/bus/basic": 1157, "8/bus/ft1": 1772, "8/bus/ft2": 1992,
	"8/mesh/basic": 1614, "8/mesh/ft1": 2784, "8/mesh/ft2": 2871,
}

// TestScheduleAllocs pins the allocation count of a whole serial Schedule
// at 1.25 times the recorded count: 100 ops (seed ops*100+procs, CCR 0.8)
// on 4 and 8 processors, bus and full mesh, Basic K=0 and FT1/FT2 K=1.
// Unlike a time bound it does not depend on the host.
func TestScheduleAllocs(t *testing.T) {
	const ops = 100
	for _, procs := range []int{4, 8} {
		for _, bus := range []bool{true, false} {
			in, err := workload.RandomInstance(rand.New(rand.NewSource(int64(ops*100+procs))), ops, procs, bus, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			family := "mesh"
			if bus {
				family = "bus"
			}
			for _, h := range []Heuristic{Basic, FT1, FT2} {
				k := 1
				if h == Basic {
					k = 0
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := Schedule(h, in.Graph, in.Arch, in.Spec, k, Options{Workers: 1}); err != nil {
						t.Fatal(err)
					}
				})
				name := fmt.Sprintf("%d/%s/%v", procs, family, h)
				limit := 1.25 * scheduleAllocs[name]
				t.Logf("%s: %.0f allocs (limit %.0f)", name, allocs, limit)
				if allocs > limit {
					t.Errorf("%s: Schedule made %.0f allocations, pinned at %.0f", name, allocs, limit)
				}
			}
		}
	}
}
