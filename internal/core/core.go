// Package core implements the paper's scheduling heuristics: the
// non-fault-tolerant SynDEx baseline (Section 4) and the two fault-tolerant
// greedy list-scheduling heuristics (Sections 6 and 7).
//
// All three share the same skeleton (Figs. 11 and 20):
//
//	S0: candidates = operations whose strict predecessors are all scheduled
//	Sn: while candidates remain:
//	  mSn.1: for each candidate, evaluate the schedule pressure σ on every
//	         allowed processor and keep the best one (basic) or the best
//	         K+1 (fault-tolerant);
//	  mSn.2: select the candidate whose kept pressure is greatest (the most
//	         urgent operation);
//	  mSn.3: commit the operation to its processor(s), together with the
//	         communications implied by the placement;
//	  mSn.4: update the candidate list.
//
// They differ in the replication degree and in the communications committed
// at mSn.3:
//
//   - ScheduleBasic places one replica and one active transfer per
//     inter-processor dependency.
//   - ScheduleFT1 places K+1 replicas; only the main replica of a producer
//     sends (one broadcast per bus), and each backup sender gets a passive,
//     timeout-guarded reservation that activates only after every
//     earlier-ranked sender has been detected faulty (time redundancy).
//   - ScheduleFT2 places K+1 replicas and replicates the transfers too:
//     every replica sends to every processor hosting a replica of the
//     consumer, except processors that already host a replica of the
//     producer (software redundancy of comms; first arrival wins).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// Options tune the heuristics. The zero value is ready to use.
type Options struct {
	// AllowDegraded makes the fault-tolerant heuristics replicate an
	// operation on every allowed processor when fewer than K+1 exist,
	// instead of failing. The schedule then tolerates fewer failures for
	// that operation; the Result records the effective degree.
	AllowDegraded bool
	// Seed randomizes tie-breaking between equal schedule pressures, as the
	// paper's "randomly chosen" selection. Zero keeps fully deterministic
	// declaration-order tie-breaking.
	Seed int64
	// Trace records one StepTrace per scheduling step in Result.Trace.
	Trace bool
	// Deadline is the real-time constraint: when positive, scheduling fails
	// with ErrDeadlineMissed if the failure-free makespan exceeds it (the
	// paper's "both solutions can fail ... if the real-time constraints
	// can't be satisfied", Section 8).
	Deadline float64
	// NoBroadcast is an ablation switch: FT1 treats every bus as a set of
	// point-to-point channels (one transfer per consumer processor) instead
	// of exploiting the hardware broadcast. Quantifies the benefit the
	// paper attributes to multi-point links (Section 2.1).
	NoBroadcast bool
	// NoPressure is an ablation switch: the cost function drops the
	// remaining-path term E(o) − R, degenerating into earliest-finish-time
	// list scheduling. Quantifies the benefit of the schedule pressure.
	NoPressure bool
	// Workers bounds the worker pool used for the candidate evaluations of
	// micro-step mSn.1, seeded runs included. 0 uses GOMAXPROCS; 1
	// evaluates serially. Steps with little work run serially whatever the
	// bound (DESIGN.md §8.5). The schedule is identical for every value: each
	// evaluation writes only its own result slot and the route-memo
	// entries of its candidate's in-edges, and seeded runs draw their
	// tie-breaking shuffles serially in candidate order afterwards.
	Workers int
	// Obs, when non-nil, collects the engine's counters (candidate
	// evaluations, gap searches, cross-step route-memo hits, gap lookups
	// answered without a search, worker-pool utilization) and per-phase
	// spans. Instrumentation never influences the produced schedule; a nil
	// sink costs one nil check per counter hit.
	Obs *obs.Sink
	// Cancel, when non-nil, is a cooperative cancellation flag: the greedy
	// loop polls it once per scheduling step and aborts with ErrCanceled
	// when it is raised. Cancellation never changes a completed run's
	// schedule — a run either finishes bit-identically or fails. Callers
	// with a context should prefer the ftsched.ScheduleContext entry point,
	// which raises the flag when the context is done.
	Cancel *atomic.Bool
}

// canceled reports whether the cooperative cancellation flag is raised.
func (o Options) canceled() bool {
	return o.Cancel != nil && o.Cancel.Load()
}

// Result is the outcome of a scheduling heuristic.
type Result struct {
	// Schedule is the static distributed schedule.
	Schedule *sched.Schedule
	// MinReplication is the smallest replication degree actually achieved
	// across operations. Equal to K+1 unless AllowDegraded relaxed it.
	MinReplication int
	// Trace holds the per-step decisions when Options.Trace is set.
	Trace []StepTrace
}

// StepTrace records one step of the greedy loop, for the paper's
// Figs. 14-16 style step-by-step inspection.
type StepTrace struct {
	// Step is the 1-based step number.
	Step int
	// Candidates lists the candidate operations at this step.
	Candidates []string
	// Pressures holds, for each candidate, the kept (operation, processor,
	// sigma) tuples of micro-step mSn.1.
	Pressures []PressureEntry
	// Selected is the operation committed at this step.
	Selected string
	// Procs are the processors the operation was committed to, main first.
	Procs []string
	// Start and End are the dates of the main replica.
	Start, End float64
}

// PressureEntry is one kept (operation, processor, sigma) evaluation.
type PressureEntry struct {
	Op    string
	Proc  string
	Sigma float64
}

// ErrInfeasible reports that no valid schedule exists under the constraints
// (an operation has no allowed processor, or fewer than K+1 when fault
// tolerance without degradation is requested).
var ErrInfeasible = errors.New("core: infeasible scheduling problem")

// ErrDeadlineMissed reports that the produced schedule's failure-free
// makespan exceeds Options.Deadline.
var ErrDeadlineMissed = errors.New("core: schedule misses the real-time deadline")

// ErrInvalidProblem reports that the graph, the architecture or the spec
// failed validation: the input is malformed, whatever the heuristic.
var ErrInvalidProblem = errors.New("core: invalid problem")

// ErrCanceled reports that a run was aborted by Options.Cancel before a
// schedule was produced.
var ErrCanceled = errors.New("core: scheduling canceled")

// ScheduleBasic runs the non-fault-tolerant SynDEx heuristic.
func ScheduleBasic(g *graph.Graph, a *arch.Architecture, sp *spec.Spec, opts Options) (*Result, error) {
	b, err := newBuilder(g, a, sp, sched.ModeBasic, 0, opts)
	if err != nil {
		return nil, err
	}
	return b.run()
}

// ScheduleFT1 runs the first fault-tolerant heuristic (Section 6): active
// replication of operations on K+1 processors and time redundancy of
// communications. Best suited to bus architectures, where the hardware
// broadcast lets every processor observe the main replica's sends.
func ScheduleFT1(g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int, opts Options) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative K (%d)", k)
	}
	b, err := newBuilder(g, a, sp, sched.ModeFT1, k, opts)
	if err != nil {
		return nil, err
	}
	return b.run()
}

// ScheduleFT2 runs the second fault-tolerant heuristic (Section 7): active
// replication of both operations and communications. Best suited to
// point-to-point architectures, where replicated transfers proceed in
// parallel; no timeouts are needed and several failures in one iteration are
// supported.
func ScheduleFT2(g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int, opts Options) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative K (%d)", k)
	}
	b, err := newBuilder(g, a, sp, sched.ModeFT2, k, opts)
	if err != nil {
		return nil, err
	}
	return b.run()
}

// rng returns the tie-breaking source, or nil for deterministic behavior.
func (o Options) rng() *rand.Rand {
	if o.Seed == 0 {
		return nil
	}
	return rand.New(rand.NewSource(o.Seed))
}

// Heuristic selects one of the three schedulers for the generic entry
// points Schedule and ScheduleTuned.
type Heuristic int

// Available heuristics.
const (
	// Basic is the non-fault-tolerant SynDEx baseline.
	Basic Heuristic = iota + 1
	// FT1 is the first fault-tolerant solution (Section 6).
	FT1
	// FT2 is the second fault-tolerant solution (Section 7).
	FT2
)

// String returns the heuristic's short name.
func (h Heuristic) String() string {
	switch h {
	case Basic:
		return "basic"
	case FT1:
		return "ft1"
	case FT2:
		return "ft2"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// ParseHeuristic returns the heuristic with the given short name (String).
func ParseHeuristic(name string) (Heuristic, error) {
	for _, h := range []Heuristic{Basic, FT1, FT2} {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q (want basic, ft1, or ft2)", name)
}

// Schedule dispatches to the heuristic h. K is ignored by Basic.
func Schedule(h Heuristic, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int, opts Options) (*Result, error) {
	switch h {
	case Basic:
		return ScheduleBasic(g, a, sp, opts)
	case FT1:
		return ScheduleFT1(g, a, sp, k, opts)
	case FT2:
		return ScheduleFT2(g, a, sp, k, opts)
	default:
		return nil, fmt.Errorf("core: unknown heuristic %v", h)
	}
}

// ScheduleTuned runs heuristic h once with deterministic tie-breaking and
// `seeds` more times with randomized tie-breaking (the paper's "randomly
// chosen" selection between equal schedule pressures), returning the result
// with the shortest makespan. Deterministic for fixed seeds count. A
// deadline in opts only fails the search if no run meets it.
func ScheduleTuned(h Heuristic, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k, seeds int, opts Options) (*Result, error) {
	if seeds < 0 {
		return nil, fmt.Errorf("core: negative seeds (%d)", seeds)
	}
	deadline := opts.Deadline
	opts.Deadline = 0
	var best *Result
	for seed := int64(0); seed <= int64(seeds); seed++ {
		opts.Seed = seed
		r, err := Schedule(h, g, a, sp, k, opts)
		if err != nil {
			return nil, err
		}
		if best == nil || r.Schedule.Makespan() < best.Schedule.Makespan() {
			best = r
		}
	}
	if deadline > 0 && best.Schedule.Makespan() > deadline+1e-9 {
		return nil, fmt.Errorf("%w: best makespan over %d runs is %g, deadline %g",
			ErrDeadlineMissed, seeds+1, best.Schedule.Makespan(), deadline)
	}
	return best, nil
}
