package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden schedule dumps")

// goldenCase is one cell of the equivalence matrix: the incremental (and
// parallel) scheduler must reproduce, byte for byte, the schedule the
// pre-optimization serial builder emitted for it.
type goldenCase struct {
	name string
	h    Heuristic
	k    int
	bus  bool
	ring bool // point-to-point ring: multi-hop routes instead of a full mesh
	ops  int
	prc  int
	seed int64 // tie-breaking seed (0 = deterministic)
	inst int64 // instance-generator seed
}

func goldenMatrix() []goldenCase {
	var cases []goldenCase
	add := func(h Heuristic, k int, bus bool, ops, prc int, seed int64) {
		arch := "p2p"
		if bus {
			arch = "bus"
		}
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%s_k%d_%s_%dx%d_s%d", h, k, arch, ops, prc, seed),
			h:    h, k: k, bus: bus, ops: ops, prc: prc, seed: seed,
			inst: int64(1000 + len(cases)),
		})
	}
	for _, bus := range []bool{true, false} {
		add(Basic, 0, bus, 12, 3, 0)
		add(Basic, 0, bus, 24, 4, 7)
		add(FT1, 1, bus, 12, 3, 0)
		add(FT1, 1, bus, 24, 4, 7)
		add(FT1, 2, bus, 24, 4, 0)
		add(FT2, 1, bus, 12, 3, 0)
		add(FT2, 1, bus, 24, 4, 7)
		add(FT2, 2, bus, 24, 4, 0)
	}
	// Point-to-point multi-hop cases: a 6-processor ring (diameter 3), so
	// FT2's replicated transfers exercise the route tables on paths of up to
	// three hops — the full-mesh p2p cases above are all single-hop.
	addRing := func(h Heuristic, k int, ops, prc int, seed int64) {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%s_k%d_ring_%dx%d_s%d", h, k, ops, prc, seed),
			h:    h, k: k, ring: true, ops: ops, prc: prc, seed: seed,
			inst: int64(1000 + len(cases)),
		})
	}
	addRing(FT2, 1, 24, 6, 0)
	addRing(FT2, 2, 24, 6, 3)
	// Larger fault-tolerant cases on FullMesh(8) and Ring(6): the small
	// instances above give the cross-step route memo a few hundred reuses
	// at most, these give it thousands (mesh routes and the first hops of
	// ring routes) next to the direct search of later ring hops.
	add(FT1, 1, false, 100, 8, 0)
	add(FT2, 1, false, 120, 8, 0)
	add(FT2, 2, false, 60, 8, 5)
	addRing(FT1, 1, 100, 6, 0)
	addRing(FT2, 1, 80, 6, 0)
	addRing(FT1, 2, 60, 6, 3)
	return cases
}

func (c goldenCase) instance(t testing.TB) *workload.Instance {
	t.Helper()
	if c.ring {
		r := rand.New(rand.NewSource(c.inst))
		g, err := workload.LayeredDAG(r, workload.GraphParams{Ops: c.ops, Width: c.ops / 4, EdgeProb: 0.4, WithIO: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := workload.Ring(c.prc)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		return &workload.Instance{Graph: g, Arch: a, Spec: sp}
	}
	in, err := workload.RandomInstance(rand.New(rand.NewSource(c.inst)), c.ops, c.prc, c.bus, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// dumpSchedule renders a schedule canonically and losslessly: every op slot
// and comm slot with full float64 precision, in deterministic order.
func dumpSchedule(s *sched.Schedule) string {
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "mode=%s k=%d makespan=%s\n", s.Mode, s.K, f(s.Makespan()))
	for _, p := range s.Procs() {
		for _, sl := range s.ProcSlots(p) {
			fmt.Fprintf(&b, "op %s proc=%s rep=%d [%s %s]\n", sl.Op, sl.Proc, sl.Replica, f(sl.Start), f(sl.End))
		}
	}
	for _, l := range s.Links() {
		for _, c := range s.LinkSlots(l) {
			fmt.Fprintf(&b, "comm %s link=%s from=%s to=%s src=%s dst=%s rank=%d id=%d hop=%d [%s %s] passive=%v timeout=%s bcast=%v\n",
				c.Edge, c.Link, c.From, c.To, c.SrcProc, c.DstProc,
				c.SenderRank, c.TransferID, c.Hop, f(c.Start), f(c.End),
				c.Passive, f(c.Timeout), c.Broadcast)
		}
	}
	return b.String()
}

// TestGoldenEquivalence checks the scheduler against the committed dumps of
// the pre-incremental serial builder: same op slots, same comm slots, same
// makespan, to the last bit. Run with -update to regenerate the dumps (only
// legitimate when the heuristic itself intentionally changes).
func TestGoldenEquivalence(t *testing.T) {
	forcePool(t)
	for _, c := range goldenMatrix() {
		t.Run(c.name, func(t *testing.T) {
			in := c.instance(t)
			res, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, Options{Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			got := dumpSchedule(res.Schedule)
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden dump (run with -update on the serial baseline): %v", err)
			}
			if got != string(want) {
				t.Errorf("schedule diverged from the serial baseline\n%s", diffLines(string(want), got))
			}
			// The worker pool must be invisible in the output: serial
			// (Workers 1) and parallel (Workers 4 and 8) evaluation all have
			// to reproduce the same bytes.
			for _, w := range []int{1, 4, 8} {
				res, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, Options{Seed: c.seed, Workers: w})
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				if g := dumpSchedule(res.Schedule); g != string(want) {
					t.Errorf("Workers=%d diverged from the serial baseline\n%s", w, diffLines(string(want), g))
				}
			}
		})
	}
}

// forcePool runs every step with two or more candidates on the worker
// pool until the test ends, so the small golden problems exercise it too.
func forcePool(t *testing.T) {
	saved := poolMinWork
	poolMinWork = 0
	t.Cleanup(func() { poolMinWork = saved })
}

// diffLines reports the first few differing lines between two dumps.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
			if shown++; shown >= 5 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}
