package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched/internal/obs"
	"ftsched/internal/workload"
)

// benchInstance draws the deterministic instance used by the scheduler
// benchmarks: a layered DAG of nOps on nProcs processors.
func benchInstance(b *testing.B, nOps, nProcs int, bus bool) *workload.Instance {
	b.Helper()
	in, err := workload.RandomInstance(rand.New(rand.NewSource(int64(nOps*100+nProcs))), nOps, nProcs, bus, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkScheduleFT1_400x8 is the headline hot-path benchmark: FT1, K=1,
// 400 operations on an 8-processor bus.
func BenchmarkScheduleFT1_400x8(b *testing.B) {
	in := benchInstance(b, 400, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleFT1_400x8_Obs is the same workload with an enabled
// observability sink; the delta against BenchmarkScheduleFT1_400x8 is the
// full cost of instrumentation (counters, spans, timers).
func BenchmarkScheduleFT1_400x8_Obs(b *testing.B) {
	in := benchInstance(b, 400, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, Options{Obs: obs.NewSink()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleModes sweeps the three heuristics over sizes and both
// architecture families.
func BenchmarkScheduleModes(b *testing.B) {
	for _, bus := range []bool{true, false} {
		arch := "p2p"
		if bus {
			arch = "bus"
		}
		for _, n := range []int{100, 400} {
			in := benchInstance(b, n, 8, bus)
			for _, h := range []Heuristic{Basic, FT1, FT2} {
				b.Run(fmt.Sprintf("%s/%s/ops%d", h, arch, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := Schedule(h, in.Graph, in.Arch, in.Spec, 1, Options{}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkScheduleDesign schedules two of the perfbench design workload's
// problems (the same generator seeds, CCR 1.0): FT1, K=1 on a 400-op
// 8-processor bus and FT2, K=1 on a 300-op 8-processor full mesh. Each runs
// on the default worker pool and serially (Workers 1).
func BenchmarkScheduleDesign(b *testing.B) {
	for _, c := range []struct {
		name string
		h    Heuristic
		bus  bool
		ops  int
		seed int64
	}{
		{"ft1/bus/400x8", FT1, true, 400, 7919*3 + 12},
		{"ft2/p2p/300x8", FT2, false, 300, 7919*6 + 3},
	} {
		in, err := workload.RandomInstance(rand.New(rand.NewSource(c.seed)), c.ops, 8, c.bus, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{0, 1} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, 1, Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
