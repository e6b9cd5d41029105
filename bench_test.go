// Benchmarks regenerating the paper's evaluation, one per figure or claim
// (see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark measures the cost of
// producing the artifact and reports the headline quantity of the figure via
// b.ReportMetric (makespans in time units, response times, ratios), so
// `go test -bench=. -benchmem` prints the reproduced numbers next to the
// paper's.
package ftsched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// benchSchedule runs one heuristic on one instance and reports its makespan.
func benchSchedule(b *testing.B, in *paperex.Instance, h core.Heuristic, k int, metric string) {
	b.Helper()
	var makespan float64
	for i := 0; i < b.N; i++ {
		r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, k, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		makespan = r.Schedule.Makespan()
	}
	b.ReportMetric(makespan, metric)
}

// BenchmarkFig17FT1Bus regenerates Fig. 17: the FT1 schedule on the
// 3-processor bus, K=1. The paper reports makespan 9.4; the deterministic
// run reproduces it exactly.
func BenchmarkFig17FT1Bus(b *testing.B) {
	benchSchedule(b, paperex.BusInstance(), core.FT1, 1, "makespan")
}

// BenchmarkFig19BasicBus regenerates Fig. 19: the non-fault-tolerant bus
// schedule (paper: 8.6). The tuned search over randomized tie-breaks is part
// of the measured work, as in the experiment harness.
func BenchmarkFig19BasicBus(b *testing.B) {
	in := paperex.BusInstance()
	var makespan float64
	for i := 0; i < b.N; i++ {
		r, err := core.ScheduleTuned(core.Basic, in.Graph, in.Arch, in.Spec, 0, 50, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		makespan = r.Schedule.Makespan()
	}
	b.ReportMetric(makespan, "makespan")
}

// BenchmarkFig22FT2P2P regenerates Fig. 22: the FT2 schedule on the
// point-to-point triangle, K=1 (paper: 8.9).
func BenchmarkFig22FT2P2P(b *testing.B) {
	benchSchedule(b, paperex.TriangleInstance(), core.FT2, 1, "makespan")
}

// BenchmarkFig24BasicP2P regenerates Fig. 24: the non-fault-tolerant
// triangle schedule (paper: 8.0, matched exactly by the tuned run).
func BenchmarkFig24BasicP2P(b *testing.B) {
	in := paperex.TriangleInstance()
	var makespan float64
	for i := 0; i < b.N; i++ {
		r, err := core.ScheduleTuned(core.Basic, in.Graph, in.Arch, in.Spec, 0, 50, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		makespan = r.Schedule.Makespan()
	}
	b.ReportMetric(makespan, "makespan")
}

// BenchmarkFig18Transient regenerates Fig. 18(a): the transient iteration of
// the FT1 schedule when P2 crashes; the reported metric is the transient
// response time (the failure-free response is 8.0).
func BenchmarkFig18Transient(b *testing.B) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var resp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec,
			sim.Single("P2", 1, 0), sim.Config{Iterations: 2})
		if err != nil {
			b.Fatal(err)
		}
		resp = sr.Iterations[1].ResponseTime
	}
	b.ReportMetric(resp, "transient_resp")
}

// BenchmarkFig18Permanent regenerates Fig. 18(b): the subsequent iteration
// with P2 marked faulty; the metric is its response time (no timeout waits).
func BenchmarkFig18Permanent(b *testing.B) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var resp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec,
			sim.Single("P2", 1, 0), sim.Config{Iterations: 3})
		if err != nil {
			b.Fatal(err)
		}
		resp = sr.Iterations[2].ResponseTime
	}
	b.ReportMetric(resp, "permanent_resp")
}

// BenchmarkFig23FT2Transient regenerates Fig. 23: FT2's transient iteration
// when P2 crashes right after executing A; the metric is the transient
// response time, reached with zero timeouts.
func BenchmarkFig23FT2Transient(b *testing.B) {
	in := paperex.TriangleInstance()
	r, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	crashAt := r.Schedule.ReplicaOn("A", "P2").End
	var resp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := sim.Simulate(r.Schedule, in.Graph, in.Arch, in.Spec,
			sim.Single("P2", 0, crashAt), sim.Config{Iterations: 1})
		if err != nil {
			b.Fatal(err)
		}
		ir := sr.Iterations[0]
		if !ir.Completed || ir.TimeoutsFired != 0 {
			b.Fatal("FT2 transient iteration must complete without timeouts")
		}
		resp = ir.ResponseTime
	}
	b.ReportMetric(resp, "transient_resp")
}

// BenchmarkArchCrossover regenerates the Sections 6.6/7.4 guidance: both FT
// heuristics on both architectures; the metric is the failure-free total
// communication time (FT1 minimal on the bus, FT2 heavy everywhere).
func BenchmarkArchCrossover(b *testing.B) {
	cases := []struct {
		name string
		in   *paperex.Instance
		h    core.Heuristic
	}{
		{"FT1OnBus", paperex.BusInstance(), core.FT1},
		{"FT2OnBus", paperex.BusInstance(), core.FT2},
		{"FT1OnTriangle", paperex.TriangleInstance(), core.FT1},
		{"FT2OnTriangle", paperex.TriangleInstance(), core.FT2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var commTime float64
			for i := 0; i < b.N; i++ {
				r, err := core.Schedule(c.h, c.in.Graph, c.in.Arch, c.in.Spec, 1, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				commTime = r.Schedule.TotalActiveCommTime()
			}
			b.ReportMetric(commTime, "comm_time")
		})
	}
}

// BenchmarkMultiFailure regenerates the several-failures comparison: K=2
// schedules under two simultaneous crashes; the metric is the degraded
// response time (FT1 accumulates timeouts, FT2 does not).
func BenchmarkMultiFailure(b *testing.B) {
	g := paperex.Algorithm()
	a, err := workload.FullMesh(4)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.AddBus("can", a.ProcessorNames()...); err != nil {
		b.Fatal(err)
	}
	sp, err := workload.Costs(rand.New(rand.NewSource(7)), g, a,
		workload.CostParams{MeanExec: 1.5, Spread: 0.3, CCR: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.Scenario{Failures: []sim.Failure{
		{Proc: "P1", Iteration: 0, At: 0},
		{Proc: "P2", Iteration: 0, At: 0},
	}}
	for _, h := range []core.Heuristic{core.FT1, core.FT2} {
		b.Run(h.String(), func(b *testing.B) {
			r, err := core.Schedule(h, g, a, sp, 2, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var resp float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr, err := sim.Simulate(r.Schedule, g, a, sp, sc, sim.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if !sr.Iterations[0].Completed {
					b.Fatal("K=2 schedule lost outputs")
				}
				resp = sr.Iterations[0].ResponseTime
			}
			b.ReportMetric(resp, "resp_2fail")
		})
	}
}

// BenchmarkOverheadVsK sweeps the replication degree on a random layered
// DAG; the metric is the FT/baseline makespan ratio.
func BenchmarkOverheadVsK(b *testing.B) {
	r := rand.New(rand.NewSource(1000))
	in, err := workload.RandomInstance(r, 16, 4, true, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ft, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, k, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = ft.Schedule.Makespan() / base.Schedule.Makespan()
			}
			b.ReportMetric(ratio, "ft/basic")
		})
	}
}

// BenchmarkTransientResponse sweeps every single failure over a random
// instance; the metric is the mean transient response inflation.
func BenchmarkTransientResponse(b *testing.B) {
	for _, cfg := range []struct {
		name string
		h    core.Heuristic
		bus  bool
	}{{"FT1Bus", core.FT1, true}, {"FT2Mesh", core.FT2, false}} {
		b.Run(cfg.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(2000))
			in, err := workload.RandomInstance(r, 12, 3, cfg.bus, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			sr, err := core.Schedule(cfg.h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			free, err := sim.Simulate(sr.Schedule, in.Graph, in.Arch, in.Spec, sim.Scenario{}, sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			base := free.Iterations[0].ResponseTime
			scenarios := sim.SingleSweep(in.Arch, sr.Schedule.Makespan(), 4)
			var mean float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0.0
				for _, sc := range scenarios {
					res, err := sim.Simulate(sr.Schedule, in.Graph, in.Arch, in.Spec, sc, sim.Config{})
					if err != nil {
						b.Fatal(err)
					}
					total += res.Iterations[0].ResponseTime / base
				}
				mean = total / float64(len(scenarios))
			}
			b.ReportMetric(mean, "mean_inflation")
		})
	}
}

// BenchmarkCCRSweep reports the FT1 overhead ratio across communication-to-
// computation ratios on random bus instances.
func BenchmarkCCRSweep(b *testing.B) {
	for _, ccr := range []float64{0.1, 1, 5} {
		b.Run(fmt.Sprintf("CCR%g", ccr), func(b *testing.B) {
			r := rand.New(rand.NewSource(3000))
			in, err := workload.RandomInstance(r, 12, 3, true, ccr)
			if err != nil {
				b.Fatal(err)
			}
			base, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = ft.Schedule.Makespan() / base.Schedule.Makespan()
			}
			b.ReportMetric(ratio, "ft1/basic")
		})
	}
}

// BenchmarkHeuristicScaling measures scheduling cost against graph size
// (the heuristics are O(n^2) in candidate evaluations over link timelines).
func BenchmarkHeuristicScaling(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		r := rand.New(rand.NewSource(int64(n)))
		in, err := workload.RandomInstance(r, n, 4, true, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			b.Run(fmt.Sprintf("%s/ops%d", h, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, 1, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCertify measures the static K-fault certification of the paper's
// Figure-17 bus example: K=1 certifies the FT1 schedule built for one
// failure; K=2 exercises the rejection path (the K=1 schedule cannot survive
// two failures, so the certifier shrinks a minimal counterexample). The
// metric is the worst-case transient response bound over the tolerated
// patterns analyzed before the verdict (the failure-free bound on
// rejection).
func BenchmarkCertify(b *testing.B) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var bound float64
			for i := 0; i < b.N; i++ {
				v, err := ftsched.Certify(res, in.Graph, in.Arch, in.Spec, k)
				if err != nil {
					b.Fatal(err)
				}
				if v.Certified != (k == 1) {
					b.Fatalf("K=%d: certified=%v", k, v.Certified)
				}
				bound = v.WorstBound
			}
			b.ReportMetric(bound, "worst_bound")
		})
	}
}

// BenchmarkCertifyScale measures the certifier where its cost actually
// lives: the C(P, K) frontier on random FT1/FT2 workloads across both
// architectures, up to K=3 and 16 processors, with the worker pool swept on
// the widest case (the verdict is identical at every worker count, so the
// sub-benchmarks expose pure engine throughput). The metric is the number of
// frontier patterns analyzed.
func BenchmarkCertifyScale(b *testing.B) {
	cases := []struct {
		name    string
		h       core.Heuristic
		bus     bool
		ops     int
		procs   int
		k       int
		workers int
	}{
		{"FT1Bus/60x8/K2", core.FT1, true, 60, 8, 2, 0},
		{"FT1P2P/60x8/K2", core.FT1, false, 60, 8, 2, 0},
		{"FT1Bus/60x12/K3", core.FT1, true, 60, 12, 3, 0},
		{"FT2P2P/60x8/K2", core.FT2, false, 60, 8, 2, 0},
		{"FT1Bus/100x16/K2", core.FT1, true, 100, 16, 2, 0},
		{"FT1Bus/100x16/K2/w4", core.FT1, true, 100, 16, 2, 4},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(c.ops*100 + c.procs)))
			in, err := workload.RandomInstance(r, c.ops, c.procs, c.bus, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var checked int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := ftsched.CertifyWith(res, in.Graph, in.Arch, in.Spec, c.k,
					ftsched.CertifyOptions{Workers: c.workers})
				if err != nil {
					b.Fatal(err)
				}
				if !v.Certified {
					b.Fatalf("schedule built for K=%d failed its own certificate:\n%s", c.k, v.Report())
				}
				checked = v.PatternsChecked
			}
			b.ReportMetric(float64(checked), "patterns")
		})
	}
}

// BenchmarkCycab regenerates the conclusion's platform: a control loop with
// state on the 5-processor CAN-bus vehicle, FT1 with K=1; the metric is the
// transient response after the vision processor fails.
func BenchmarkCycab(b *testing.B) {
	g, err := workload.ControlLoop(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	a, err := workload.Cycab()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := workload.Costs(rand.New(rand.NewSource(42)), g, a,
		workload.CostParams{MeanExec: 2, Spread: 0.4, CCR: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.RestrictExtIOs(sp, g, a, 2); err != nil {
		b.Fatal(err)
	}
	r, err := core.ScheduleFT1(g, a, sp, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var resp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := sim.Simulate(r.Schedule, g, a, sp,
			sim.Single("vision", 1, 1.0), sim.Config{Iterations: 3})
		if err != nil {
			b.Fatal(err)
		}
		if !sr.Iterations[1].Completed {
			b.Fatal("vehicle lost actuation")
		}
		resp = sr.Iterations[1].ResponseTime
	}
	b.ReportMetric(resp, "transient_resp")
}
