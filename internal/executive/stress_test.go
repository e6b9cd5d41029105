package executive

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/workload"
)

// TestStressManyIterationsWithStaggeredKills runs a larger schedule for
// many iterations with one crash per early iteration, checking value
// correctness throughout. Exercises the promise machinery under real
// concurrency (run with -race in CI).
func TestStressManyIterationsWithStaggeredKills(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	in, err := workload.RandomInstance(r, 24, 4, true, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Bind every operation to a commutative shifted sum so the reference
	// can be computed sequentially.
	prog := NewProgram()
	for _, op := range in.Graph.OpNames() {
		op := op
		switch {
		case len(in.Graph.Preds(op)) == 0:
			prog.Bind(op, func(it int, _ map[string]Value) Value { return it + 13 })
		default:
			prog.Bind(op, func(_ int, in map[string]Value) Value {
				total := 3
				for _, v := range in {
					total += v.(int)
				}
				return total
			})
		}
	}
	ref := func(it int) map[string]int {
		vals := map[string]int{}
		order, _ := in.Graph.TopoOrder()
		for _, op := range order {
			if len(in.Graph.Preds(op)) == 0 {
				vals[op] = it + 13
				continue
			}
			total := 3
			for _, p := range in.Graph.Preds(op) {
				total += vals[p]
			}
			vals[op] = total
		}
		return vals
	}

	// Two kills in different iterations (K=2 tolerates them).
	procs := sr.Schedule.Procs()
	kills := []KillSpec{
		{Proc: procs[0], Iteration: 1, Op: sr.Schedule.ProcSlots(procs[0])[0].Op},
		{Proc: procs[1], Iteration: 3, Op: sr.Schedule.ProcSlots(procs[1])[2].Op},
	}
	const iters = 12
	res, err := Run(sr.Schedule, in.Graph, prog, Config{Iterations: iters, Kills: kills})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != iters {
		t.Fatalf("ran %d iterations", len(res.Iterations))
	}
	for it, io := range res.Iterations {
		if !io.Completed {
			t.Fatalf("iteration %d incomplete", it)
		}
		want := ref(it)
		for out, v := range io.Values {
			if v != want[out] {
				t.Errorf("iteration %d output %s = %v, want %d", it, out, v, want[out])
			}
		}
	}
	if len(res.CrashedProcs) != 2 {
		t.Errorf("crashed = %v", res.CrashedProcs)
	}
}

// TestStressParallelRuns executes many runs concurrently to shake out any
// shared-state assumptions between independent executives.
func TestStressParallelRuns(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	in, err := workload.RandomInstance(r, 10, 3, true, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram()
	for _, op := range in.Graph.OpNames() {
		if len(in.Graph.Preds(op)) == 0 {
			prog.Bind(op, func(it int, _ map[string]Value) Value { return it })
		} else {
			prog.Bind(op, func(_ int, in map[string]Value) Value {
				total := 0
				for _, v := range in {
					total += v.(int)
				}
				return total
			})
		}
	}
	t.Run("group", func(t *testing.T) {
		for i := 0; i < 8; i++ {
			i := i
			t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
				t.Parallel()
				res, err := Run(sr.Schedule, in.Graph, prog, Config{Iterations: 5})
				if err != nil {
					t.Fatal(err)
				}
				for it, io := range res.Iterations {
					if !io.Completed {
						t.Fatalf("iteration %d incomplete", it)
					}
				}
			})
		}
	})
}
