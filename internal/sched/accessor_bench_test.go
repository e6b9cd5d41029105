package sched_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// designShapes are the two large shapes of the design workload: a 400-op
// FT1 schedule on an 8-processor bus and a 300-op FT2 schedule on an
// 8-processor full mesh.
var designShapes = []struct {
	name string
	h    core.Heuristic
	bus  bool
	ops  int
	seed int64
}{
	{"ft1/bus/400x8", core.FT1, true, 400, 7919*3 + 12},
	{"ft2/p2p/300x8", core.FT2, false, 300, 7919*6 + 3},
}

// designProblem schedules design shape i at K=1.
func designProblem(tb testing.TB, i int) problem {
	tb.Helper()
	sh := designShapes[i]
	in, err := workload.RandomInstance(rand.New(rand.NewSource(sh.seed)), sh.ops, 8, sh.bus, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Schedule(sh.h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return problem{name: sh.name, g: in.Graph, a: in.Arch, sp: in.Spec, s: res.Schedule}
}

// BenchmarkValidate measures Validate on a 100-op FT1 schedule and on the
// design workload's two large shapes. Each call compiles the schedule's
// slots and runs every check on the compiled arrays; the sorted slot views
// it reads are memoized on the schedule, the compiled form is not.
func BenchmarkValidate(b *testing.B) {
	in, err := workload.RandomInstance(rand.New(rand.NewSource(42)), 100, 8, true, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	probs := []problem{{name: "ft1/bus/100x8", g: in.Graph, a: in.Arch, sp: in.Spec, s: res.Schedule}}
	for i := range designShapes {
		probs = append(probs, designProblem(b, i))
	}
	for _, p := range probs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.s.Validate(p.g, p.a, p.sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileValid measures the certifier's entry: one pass that
// validates and compiles a design-workload schedule.
func BenchmarkCompileValid(b *testing.B) {
	for i := range designShapes {
		p := designProblem(b, i)
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.CompileValid(p.s, p.g, p.a, p.sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// validateAllocs pins Validate's allocations on the design shapes, in
// designShapes order: 552 and 511 when recorded, against about 64k and 29k
// for the string-view validator.
var validateAllocs = []float64{600, 560}

// TestValidateAllocs pins the allocation count of Validate on the design
// workload's two large shapes; unlike a time bound it does not depend on
// the host.
func TestValidateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules two design-size problems")
	}
	for i := range designShapes {
		p := designProblem(t, i)
		allocs := testing.AllocsPerRun(5, func() {
			if err := p.s.Validate(p.g, p.a, p.sp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", p.name, allocs)
		if allocs > validateAllocs[i] {
			t.Errorf("%s: Validate made %.0f allocations, pinned at %.0f", p.name, allocs, validateAllocs[i])
		}
	}
}
