// Package executive runs a static schedule as a real concurrent distributed
// program — the second step of the AAA method (Section 4.1: "from this
// static schedule, it produces automatically a real-time distributed
// executive implementing this schedule").
//
// One goroutine per processor executes its operation sequence in schedule
// order, computing user-supplied functions; every operation replica exposes
// its result as a single-assignment promise, and consumers resolve their
// inputs with the mode's policy: the basic executive reads its only
// producer, the fault-tolerant executives walk the producer's replicas in
// election order, failing over when a replica's processor has crashed or
// aborted (the paper's fail-stop assumption of Section 3.1 — "any processor
// can detect the failure of a fail-stop processor" — realized with closed
// channels instead of wall-clock timeouts, keeping the executive
// deterministic and test-friendly; the time-accurate view of the failover
// machinery, including timeout accumulation, lives in the sim package).
//
// Crashes are injected deterministically: a KillSpec stops a processor
// right before it would execute a given operation of a given iteration.
// Memory operations (mems) keep per-replica state across iterations and
// consume their delayed inputs at iteration boundaries.
//
// runtime.go is the executive itself, standard library only, over the flat
// Tables of one schedule; NewTables builds them from a sched.Schedule and a
// graph.Graph. Package gen embeds runtime.go (RuntimeSource) in the
// standalone programs it emits, so they and Run share one runtime.
package executive

import (
	_ "embed"
	"fmt"
	"slices"

	"ftsched/internal/graph"
	"ftsched/internal/sched"
)

// RuntimeSource is the text of runtime.go.
//
//go:embed runtime.go
var RuntimeSource string

// Run executes the schedule's distributed executive for the program.
func Run(s *sched.Schedule, g *graph.Graph, prog *Program, cfg Config) (*Result, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 1
	}
	for _, p := range s.Procs() {
		for _, sl := range s.ProcSlots(p) {
			if g.OpID(sl.Op) < 0 {
				return nil, fmt.Errorf("executive: schedule places operation %q, which the graph does not declare", sl.Op)
			}
		}
	}
	return NewTables(s, g).run(prog, cfg)
}

// NewTables flattens the schedule and the graph into the runtime's tables.
// Operations are in graph insertion order; the outputs are the graph's
// output extios, or its sinks when it has none (graph.IDs Outputs).
func NewTables(s *sched.Schedule, g *graph.Graph) *Tables {
	x := g.IDs()
	t := &Tables{Procs: s.Procs(), Ops: g.OpNames(), Delayed: make([][]int, g.NumOps())}
	for _, p := range t.Procs {
		var seq []int
		for _, sl := range s.ProcSlots(p) {
			seq = append(seq, int(g.OpID(sl.Op)))
		}
		t.Seqs = append(t.Seqs, seq)
	}
	for o, op := range g.Ops() {
		var procs []int
		for _, rep := range s.Replicas(op.Name()) {
			procs = append(procs, slices.Index(t.Procs, rep.Proc))
		}
		t.Replicas = append(t.Replicas, procs)
		preds := make([]int, len(x.Preds(int32(o))))
		for i, pe := range x.Preds(int32(o)) {
			preds[i] = int(pe.Op)
		}
		t.Strict = append(t.Strict, preds)
		t.Mem = append(t.Mem, op.Kind() == graph.KindMem)
	}
	for e, delayed := range x.Delayed {
		if delayed {
			t.Delayed[x.Dst[e]] = append(t.Delayed[x.Dst[e]], int(x.Src[e]))
		}
	}
	t.Outputs = make([]int, len(x.Outputs))
	for i, o := range x.Outputs {
		t.Outputs[i] = int(o)
	}
	return t
}
