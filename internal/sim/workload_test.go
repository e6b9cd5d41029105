package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// workloadShape is one campaign-scale problem family: a generator, the
// heuristic, and the fault tolerance K.
type workloadShape struct {
	name string
	h    core.Heuristic
	k    int
	gen  func(r *rand.Rand, nOps int) (*workload.Instance, error)
}

// randomOn draws workload.RandomInstance on 6 processors, bus or mesh.
func randomOn(bus bool) func(*rand.Rand, int) (*workload.Instance, error) {
	return func(r *rand.Rand, nOps int) (*workload.Instance, error) {
		return workload.RandomInstance(r, nOps, 6, bus, 1.0)
	}
}

// layeredOnRing draws a layered DAG on Ring(6), whose routes are multi-hop.
func layeredOnRing(r *rand.Rand, nOps int) (*workload.Instance, error) {
	g, err := workload.LayeredDAG(r, workload.GraphParams{Ops: nOps, Width: nOps / 4, EdgeProb: 0.4, WithIO: true})
	if err != nil {
		return nil, err
	}
	a, err := workload.Ring(6)
	if err != nil {
		return nil, err
	}
	sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1.0})
	if err != nil {
		return nil, err
	}
	return &workload.Instance{Graph: g, Arch: a, Spec: sp}, nil
}

var workloadShapes = []workloadShape{
	{"bus/ft1/k1", core.FT1, 1, randomOn(true)},
	{"bus/ft1/k2", core.FT1, 2, randomOn(true)},
	{"mesh/ft2/k1", core.FT2, 1, randomOn(false)},
	{"ring/ft1/k1", core.FT1, 1, layeredOnRing},
	{"ring/ft2/k1", core.FT2, 1, layeredOnRing},
}

// scheduleShape generates and schedules one problem of the shape.
func scheduleShape(tb testing.TB, sh workloadShape, seed int64, nOps int) (*workload.Instance, *sched.Schedule) {
	tb.Helper()
	in, err := sh.gen(rand.New(rand.NewSource(seed)), nOps)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Schedule(sh.h, in.Graph, in.Arch, in.Spec, sh.k, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return in, res.Schedule
}

// campaignScenarios covers the four campaign fault classes on one problem:
// fail-stop singles, two-fault bursts within 2% of the horizon, intermittent
// outages that recover within the iteration or in a later one, and link
// outages (permanent and recovering), plus the failure-free run.
func campaignScenarios(a *arch.Architecture, horizon float64) []sim.Scenario {
	procs := a.ProcessorNames()
	links := a.LinkNames()
	last := procs[len(procs)-1]
	return []sim.Scenario{
		{},
		sim.Single(procs[0], 0, horizon*0.3),
		sim.Single(last, 1, horizon*0.6),
		{Failures: []sim.Failure{
			{Proc: procs[1], Iteration: 0, At: horizon * 0.5},
			{Proc: procs[2], Iteration: 0, At: horizon * 0.51},
		}},
		{Failures: []sim.Failure{
			{Proc: procs[0], Iteration: 1, At: horizon * 0.2},
			{Proc: last, Iteration: 1, At: horizon * 0.215},
		}},
		sim.Intermittent(procs[1], 0, horizon*0.3, 0, horizon*0.6),
		sim.Intermittent(procs[2], 0, horizon*0.7, 1, horizon*0.2),
		sim.SingleLink(links[0], 0, horizon*0.4),
		{Links: []sim.LinkFailure{{
			Link: links[len(links)-1], Iteration: 0, At: horizon * 0.25,
			RecoverIteration: 0, RecoverAt: horizon * 0.6,
		}}},
		{
			Failures: []sim.Failure{{Proc: procs[3], Iteration: 0, At: horizon * 0.45}},
			Links:    []sim.LinkFailure{{Link: links[0], Iteration: 1, At: horizon * 0.1}},
		},
	}
}

// TestSimDifferentialWorkloads pins the compiled engine to the legacy engine
// at campaign scale (40–60 operations on 6 processors): 70–135 FT1 chains
// per model, K=2, multi-hop ring routes, queue heads blocked at quiescence,
// and FT2 meshes, under every campaign scenario class. It also pins
// RunStats to Run on the same scenarios. The largest case must span more
// than one 64-slot word of FT1 chains and of next-action slots, so the
// multi-word live set runs under the legacy referee.
func TestSimDifferentialWorkloads(t *testing.T) {
	cases, maxChains, maxSlots := 0, 0, 0
	for si, sh := range workloadShapes {
		for trial := 0; trial < 2; trial++ {
			seed := int64(100*si + trial)
			nOps := 40 + rand.New(rand.NewSource(seed)).Intn(21)
			t.Run(fmt.Sprintf("%s/%d", sh.name, trial), func(t *testing.T) {
				in, s := scheduleShape(t, sh, seed, nOps)
				horizon := s.Makespan()
				m, err := sim.Compile(s, in.Graph, in.Arch, in.Spec)
				if err != nil {
					t.Fatal(err)
				}
				cases++
				chains, slots := sim.CandidateSlots(m)
				maxChains, maxSlots = max(maxChains, chains), max(maxSlots, slots)
				runner := m.NewRunner()
				for ci, sc := range campaignScenarios(in.Arch, horizon) {
					cfg := sim.Config{Iterations: 3, Trace: ci%2 == 0, Deadline: horizon * 1.2}
					label := fmt.Sprintf("scenario %d", ci)
					assertDifferential(t, func(legacy bool) (*sim.Result, error) {
						if legacy {
							return sim.SimulateLegacy(s, in.Graph, in.Arch, in.Spec, sc, cfg)
						}
						return runner.Run(sc, cfg)
					}, label)
					assertStatsMatch(t, m, runner, sc, cfg, label)
				}
			})
		}
	}
	t.Logf("largest case: %d FT1 chains, %d candidate slots", maxChains, maxSlots)
	if cases == 2*len(workloadShapes) && (maxChains <= 64 || maxSlots <= 64) {
		t.Fatalf("largest case has %d FT1 chains and %d candidate slots, want both > 64", maxChains, maxSlots)
	}
}

// statsShapes are the campaign workload's two model shapes, 60 operations
// on 6 processors.
var statsShapes = []workloadShape{workloadShapes[0], workloadShapes[2]}

// statsModel compiles the 60×6 model of a stats shape and returns it with
// a burst scenario, the campaign's most eventful class.
func statsModel(tb testing.TB, sh workloadShape) (*sim.Model, sim.Scenario) {
	tb.Helper()
	in, s := scheduleShape(tb, sh, 7, 60)
	m, err := sim.Compile(s, in.Graph, in.Arch, in.Spec)
	if err != nil {
		tb.Fatal(err)
	}
	return m, campaignScenarios(in.Arch, s.Makespan())[3]
}

// TestRunStatsAllocFree pins the campaign hot path's contract at runtime: a
// warmed-up Runner executes a scenario without allocating.
func TestRunStatsAllocFree(t *testing.T) {
	for _, sh := range statsShapes {
		t.Run(sh.name, func(t *testing.T) {
			m, sc := statsModel(t, sh)
			runner := m.NewRunner()
			cfg := sim.RunConfig{Iterations: 2, Deadline: m.Makespan() * 1.2}
			var st sim.Stats
			st = runner.RunStats(sc, cfg)
			if allocs := testing.AllocsPerRun(20, func() { st = runner.RunStats(sc, cfg) }); allocs != 0 {
				t.Fatalf("RunStats allocates %v times per run, want 0", allocs)
			}
			if st.Messages == 0 {
				t.Fatal("scenario delivered no messages")
			}
		})
	}
}

// statsSink keeps the benchmarked call from being optimized away.
var statsSink sim.Stats

// BenchmarkRunStats times one campaign-shaped scenario (a 2-fault burst,
// 2 iterations) on the campaign workload's 60×6 bus FT1 and mesh FT2
// models.
func BenchmarkRunStats(b *testing.B) {
	for _, sh := range statsShapes {
		b.Run(sh.name, func(b *testing.B) {
			m, sc := statsModel(b, sh)
			runner := m.NewRunner()
			cfg := sim.RunConfig{Iterations: 2, Deadline: m.Makespan() * 1.2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				statsSink = runner.RunStats(sc, cfg)
			}
		})
	}
}
