package core

import (
	"testing"

	"ftsched/internal/obs"
)

// TestObsEquivalence proves the observability layer never influences the
// produced schedule: for every golden-matrix case, an instrumented run
// (serial and with the worker pool) dumps byte-identically to the
// uninstrumented one. Under -race this doubles as the data-race proof for
// counters incremented from Options.Workers pool goroutines.
func TestObsEquivalence(t *testing.T) {
	forcePool(t)
	for _, c := range goldenMatrix() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			in := c.instance(t)
			opts := Options{Seed: c.seed}
			plain, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := dumpSchedule(plain.Schedule)
			for _, workers := range []int{1, 4} {
				sink := obs.NewSink()
				o := opts
				o.Workers = workers
				o.Obs = sink
				got, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if dump := dumpSchedule(got.Schedule); dump != want {
					t.Errorf("workers=%d: instrumented schedule differs from uninstrumented:\n--- want\n%s--- got\n%s",
						workers, want, dump)
				}
				snap := sink.Snapshot()
				if snap["core.steps"] == 0 || snap["core.evals"] == 0 {
					t.Errorf("workers=%d: core counters missing from snapshot: %v", workers, snap)
				}
				// Seeded runs evaluate on the pool too; only the shuffle and
				// the kept-entry choice stay serial.
				if workers > 1 && snap["core.pool.batches"] == 0 {
					t.Errorf("workers=%d: pool counters missing from snapshot: %v", workers, snap)
				}
				// FT2 routes every transfer, and the route memo serves the
				// first hop of each, on a bus, a ring and a full mesh alike.
				if c.h == FT2 && snap["core.cache.hits"] == 0 {
					t.Errorf("workers=%d: no route-memo hit on an FT2 schedule: %v", workers, snap)
				}
			}
		})
	}
}

// TestObsCounterConsistency checks the arithmetic relations between the
// engine's counters on one instrumented run.
func TestObsCounterConsistency(t *testing.T) {
	c := goldenMatrix()[3] // ft1 on a bus, 24x4
	in := c.instance(t)
	sink := obs.NewSink()
	if _, err := Schedule(c.h, in.Graph, in.Arch, in.Spec, c.k, Options{Obs: sink, Seed: c.seed}); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	// One greedy step per graph operation (the workload's comps plus its
	// generated extios), so steps is at least the requested comp count.
	if snap["core.steps"] < int64(c.ops) {
		t.Errorf("core.steps = %d, want >= one per comp operation (%d)", snap["core.steps"], c.ops)
	}
	if snap["core.evals"] < snap["core.steps"] {
		t.Errorf("core.evals (%d) below core.steps (%d): every step evaluates at least once",
			snap["core.evals"], snap["core.steps"])
	}
	if snap["core.gap.memo.hits"] > snap["core.gap.searches"] {
		t.Errorf("gap memo hits (%d) exceed gap searches (%d)",
			snap["core.gap.memo.hits"], snap["core.gap.searches"])
	}
	if snap["core.cache.hits"] > snap["core.gap.memo.hits"] {
		t.Errorf("route-memo hits (%d) exceed gap lookups answered without a search (%d)",
			snap["core.cache.hits"], snap["core.gap.memo.hits"])
	}
	timers := sink.Timers()
	for _, name := range []string{"evaluate", "commit"} {
		if timers[name].Count != snap["core.steps"] {
			t.Errorf("timer %q count = %d, want one per step (%d)", name, timers[name].Count, snap["core.steps"])
		}
	}
}
