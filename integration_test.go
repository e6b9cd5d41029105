package ftsched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/core"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// TestIntegrationMatrix runs the full pipeline — generate, schedule,
// validate, simulate failure-free and under failure sweeps — across a cross
// product of heuristics, architectures, workload shapes, and K values.
func TestIntegrationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep is slow")
	}
	type shape struct {
		name  string
		build func(r *rand.Rand) (*ftsched.Graph, error)
	}
	shapes := []shape{
		{"layered", func(r *rand.Rand) (*ftsched.Graph, error) {
			return workload.LayeredDAG(r, workload.GraphParams{Ops: 14, Width: 4, EdgeProb: 0.4, WithIO: true})
		}},
		{"forkjoin", func(*rand.Rand) (*ftsched.Graph, error) { return workload.ForkJoin(4, 2) }},
		{"pipeline", func(*rand.Rand) (*ftsched.Graph, error) { return workload.Pipeline(8) }},
		{"fft", func(*rand.Rand) (*ftsched.Graph, error) { return workload.FFT(4) }},
		{"gauss", func(*rand.Rand) (*ftsched.Graph, error) { return workload.GaussianElimination(4) }},
		{"diamond", func(*rand.Rand) (*ftsched.Graph, error) { return workload.Diamond(3) }},
		{"control", func(*rand.Rand) (*ftsched.Graph, error) { return workload.ControlLoop(2, 2) }},
	}
	archs := []struct {
		name  string
		build func() (*ftsched.Architecture, error)
	}{
		{"bus3", func() (*ftsched.Architecture, error) { return workload.BusArch(3) }},
		{"mesh4", func() (*ftsched.Architecture, error) { return workload.FullMesh(4) }},
		{"ring4", func() (*ftsched.Architecture, error) { return workload.Ring(4) }},
		{"star4", func() (*ftsched.Architecture, error) { return workload.Star(4) }},
		{"cycab", workload.Cycab},
	}
	for _, sh := range shapes {
		for _, ar := range archs {
			name := fmt.Sprintf("%s/%s", sh.name, ar.name)
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(len(sh.name) * len(ar.name))))
				g, err := sh.build(r)
				if err != nil {
					t.Fatal(err)
				}
				a, err := ar.build()
				if err != nil {
					t.Fatal(err)
				}
				sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.4, CCR: 0.7})
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
					k := 1
					if h == core.Basic {
						k = 0
					}
					res, err := core.Schedule(h, g, a, sp, k, core.Options{})
					if err != nil {
						t.Fatalf("%v: %v", h, err)
					}
					if err := res.Schedule.Validate(g, a, sp); err != nil {
						t.Fatalf("%v schedule invalid:\n%v", h, err)
					}
					free, err := sim.Simulate(res.Schedule, g, a, sp, sim.Scenario{}, sim.Config{})
					if err != nil {
						t.Fatalf("%v: %v", h, err)
					}
					ir := free.Iterations[0]
					if !ir.Completed {
						t.Fatalf("%v: failure-free run incomplete", h)
					}
					if diff := ir.End - res.Schedule.Makespan(); diff > 1e-6 || diff < -1e-6 {
						t.Errorf("%v: simulated end %v != static %v", h, ir.End, res.Schedule.Makespan())
					}
					if h == core.Basic {
						continue
					}
					// The failure sweep only applies where a single crash
					// cannot partition the network (Section 5.5 excludes
					// link/topology failures): rings and stars can lose
					// connectivity with the routing processor.
					if ar.name == "ring4" || ar.name == "star4" {
						continue
					}
					horizon := res.Schedule.Makespan()
					for _, sc := range sim.SingleSweep(a, horizon, 3) {
						sr, err := sim.Simulate(res.Schedule, g, a, sp, sc, sim.Config{Iterations: 2})
						if err != nil {
							t.Fatal(err)
						}
						for _, it := range sr.Iterations {
							if !it.Completed {
								t.Errorf("%v: failure %+v: iteration %d incomplete",
									h, sc.Failures[0], it.Index)
							}
						}
					}
				}
			})
		}
	}
}
