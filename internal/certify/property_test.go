package certify_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// TestCertifyAgreesWithSimulator cross-checks the static certificate
// against exhaustive fault injection: for random bus and point-to-point
// workloads and K in 1..2, Certify must accept exactly when the simulator
// delivers every output under every failure pattern of at most K processors
// failing at time zero — no false certificates and no false rejections.
func TestCertifyAgreesWithSimulator(t *testing.T) {
	type trial struct {
		name string
		h    core.Heuristic
		k    int
		bus  bool
	}
	var trials []trial
	for k := 1; k <= 2; k++ {
		trials = append(trials,
			trial{fmt.Sprintf("ft1-bus-k%d", k), core.FT1, k, true},
			trial{fmt.Sprintf("ft2-mesh-k%d", k), core.FT2, k, false},
			trial{fmt.Sprintf("basic-bus-k%d", k), core.Basic, k, true},
		)
	}
	certified, rejected := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		in, err := workload.RandomInstance(r, 9, 4, true, 0.5)
		if err != nil {
			t.Fatalf("seed %d: RandomInstance(bus): %v", seed, err)
		}
		mesh, err := workload.RandomInstance(rand.New(rand.NewSource(seed)), 9, 4, false, 0.5)
		if err != nil {
			t.Fatalf("seed %d: RandomInstance(mesh): %v", seed, err)
		}
		for _, tr := range trials {
			inst := in
			if !tr.bus {
				inst = mesh
			}
			schedK := tr.k
			if tr.h == core.Basic {
				schedK = 0
			}
			res, err := core.Schedule(tr.h, inst.Graph, inst.Arch, inst.Spec, schedK, core.Options{})
			if err != nil {
				continue // infeasible draw: nothing to cross-check
			}
			v, err := certify.Certify(res.Schedule, inst.Graph, inst.Arch, inst.Spec, tr.k)
			if err != nil {
				t.Fatalf("seed %d %s: Certify: %v", seed, tr.name, err)
			}
			simOK, worst, simResp := exhaustiveSimulate(t, res, inst, tr.k)
			if v.Certified != simOK {
				t.Errorf("seed %d %s: Certify=%v but exhaustive simulation=%v (worst failing set %v)\n%s",
					seed, tr.name, v.Certified, simOK, worst, v.Report())
			}
			// The date model is conservative for basic and FT2 schedules
			// (active transfers drain in static link order; the simulator
			// only deviates to go earlier). FT1 bounds neglect the link
			// contention of reactivated failover transfers, so they are
			// cross-checked at the verdict level only.
			if v.Certified && simOK && tr.h != core.FT1 && v.WorstBound < simResp-1e-6 {
				t.Errorf("seed %d %s: certified worst bound %g below simulated worst response time %g",
					seed, tr.name, v.WorstBound, simResp)
			}
			if v.Certified {
				certified++
			} else {
				rejected++
				if len(v.Counterexample.FailureSet) > tr.k {
					t.Errorf("seed %d %s: counterexample %v larger than K=%d",
						seed, tr.name, v.Counterexample.FailureSet, tr.k)
				}
			}
		}
	}
	if certified == 0 || rejected == 0 {
		t.Errorf("property test exercised only one side: %d certified, %d rejected", certified, rejected)
	}
}

// TestFailureFreeBoundMatchesSimulator is a cross-engine oracle: without
// failures nothing waits on a timeout or a reroute, so the certifier's
// failure-free bound must equal the simulator's failure-free response time.
// Both engines read the same compiled schedule but evaluate it
// independently (a static fixpoint against a discrete-event run).
func TestFailureFreeBoundMatchesSimulator(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		for k := 1; k <= 2; k++ {
			for _, bus := range []bool{true, false} {
				h := core.FT2
				if bus {
					h = core.FT1
				}
				r := rand.New(rand.NewSource(seed*10 + int64(k)))
				in, err := workload.RandomInstance(r, 20+r.Intn(21), 4+r.Intn(3), bus, 0.8)
				if err != nil {
					t.Fatalf("seed %d: RandomInstance: %v", seed, err)
				}
				res, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, k, core.Options{})
				if err != nil {
					continue // infeasible draw
				}
				v, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, k)
				if err != nil {
					t.Fatalf("seed %d %v K=%d: Certify: %v", seed, h, k, err)
				}
				sr, err := sim.Simulate(res.Schedule, in.Graph, in.Arch, in.Spec, sim.Scenario{}, sim.Config{})
				if err != nil {
					t.Fatalf("seed %d %v K=%d: Simulate: %v", seed, h, k, err)
				}
				ir := sr.Iterations[0]
				if !ir.Completed || math.Abs(v.FailureFreeBound-ir.ResponseTime) > 1e-6 {
					t.Errorf("seed %d %v K=%d bus=%v: certify failure-free bound %g, simulator response %g (completed %v)",
						seed, h, k, bus, v.FailureFreeBound, ir.ResponseTime, ir.Completed)
				}
				checked++
			}
		}
	}
	if checked < 12 {
		t.Errorf("only %d instances were schedulable; the oracle needs a wider draw", checked)
	}
}

// exhaustiveSimulate injects every failure pattern of at most k processors
// at iteration 0, time 0, and reports whether all iterations of all runs
// completed, one failing pattern when not, and the worst observed
// first-iteration (transient) response time.
func exhaustiveSimulate(t *testing.T, res *core.Result, in *workload.Instance, k int) (bool, []string, float64) {
	t.Helper()
	procs := in.Arch.ProcessorNames()
	worstResp := 0.0
	for size := 0; size <= k && size <= len(procs); size++ {
		for _, sub := range combinations(procs, size) {
			sc := sim.Scenario{}
			for _, p := range sub {
				sc.Failures = append(sc.Failures, sim.Failure{Proc: p, Iteration: 0, At: 0})
			}
			sr, err := sim.Simulate(res.Schedule, in.Graph, in.Arch, in.Spec, sc, sim.Config{Iterations: 2})
			if err != nil {
				t.Fatalf("Simulate %v: %v", sub, err)
			}
			for _, ir := range sr.Iterations {
				if !ir.Completed {
					return false, sub, worstResp
				}
			}
			if resp := sr.Iterations[0].ResponseTime; resp > worstResp {
				worstResp = resp
			}
		}
	}
	return true, nil, worstResp
}

func combinations(items []string, k int) [][]string {
	var out [][]string
	cur := make([]string, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i <= len(items)-(k-len(cur)); i++ {
			cur = append(cur, items[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
