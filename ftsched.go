// Package ftsched produces fault-tolerant static schedules for real-time
// distributed embedded systems, reproducing Girault, Lavarenne, Sighireanu,
// and Sorel, "Fault-Tolerant Static Scheduling for Real-Time Distributed
// Embedded Systems" (ICDCS 2001; INRIA RR-4006).
//
// Given an algorithm (a data-flow graph of operations), a distributed
// architecture (processors connected by point-to-point links and buses),
// distribution constraints (worst-case execution and communication
// durations), and a number K of permanent fail-stop processor failures to
// tolerate, the package builds a fully static distributed schedule by one of
// three greedy list-scheduling heuristics driven by the SynDEx schedule
// pressure cost function:
//
//   - ScheduleBasic: the non-fault-tolerant baseline (one replica per
//     operation);
//   - ScheduleFT1: active replication of operations plus time redundancy of
//     communications — only the main replica sends, backups fail over after
//     statically computed timeouts; best on bus architectures;
//   - ScheduleFT2: active replication of operations and communications —
//     every replica sends, consumers keep the first arrival; best on
//     point-to-point architectures.
//
// The package also ships a discrete-event simulator of the generated
// executive (Simulate) that injects fail-stop failures and reports
// per-iteration response times, output delivery, timeout failovers, and
// message counts.
//
// A minimal session:
//
//	g := ftsched.NewGraph("app")
//	_ = g.AddExtIO("in")
//	_ = g.AddComp("f")
//	_ = g.AddExtIO("out")
//	_ = g.Connect("in", "f")
//	_ = g.Connect("f", "out")
//
//	a := ftsched.NewArchitecture("board")
//	_ = a.AddProcessor("P1")
//	_ = a.AddProcessor("P2")
//	_ = a.AddBus("can", "P1", "P2")
//
//	sp := ftsched.NewSpec()
//	// ... SetExec / SetComm for every pair ...
//
//	res, err := ftsched.ScheduleFT1(g, a, sp, 1, ftsched.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Schedule.Gantt())
package ftsched

import (
	"context"
	"errors"
	"io"

	"ftsched/internal/arch"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/executive"
	"ftsched/internal/gen"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/rt"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// Graph is the algorithm model: a data-flow graph of comp/mem/extio
// operations connected by data-dependencies (Section 4.2 of the paper).
type Graph = graph.Graph

// EdgeKey identifies a data-dependency by its endpoint operation names.
type EdgeKey = graph.EdgeKey

// NewGraph returns an empty algorithm graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Architecture is the hardware model: processors connected by
// point-to-point links and multi-point buses (Section 4.3).
type Architecture = arch.Architecture

// NewArchitecture returns an empty architecture graph.
func NewArchitecture(name string) *Architecture { return arch.New(name) }

// Spec holds the distribution constraints: worst-case execution durations
// per (operation, processor) and transfer durations per (dependency, link)
// (Section 5.4). Inf marks forbidden placements.
type Spec = spec.Spec

// Inf marks an impossible (operation, processor) placement.
var Inf = spec.Inf

// NewSpec returns an empty constraints table.
func NewSpec() *Spec { return spec.New() }

// Schedule is a static distributed schedule: a total order of operation
// replicas per processor and of communications per link.
type Schedule = sched.Schedule

// ChainElem is one activity on a schedule's critical chain (see
// Schedule.CriticalChain).
type ChainElem = sched.ChainElem

// RenderChain prints a critical chain one activity per line.
func RenderChain(chain []ChainElem) string { return sched.RenderChain(chain) }

// Options tunes the scheduling heuristics.
type Options = core.Options

// Result is a heuristic's outcome: the schedule plus replication and trace
// metadata.
type Result = core.Result

// Heuristic selects a scheduler for Schedule and ScheduleTuned.
type Heuristic = core.Heuristic

// Heuristic values.
const (
	Basic = core.Basic
	FT1   = core.FT1
	FT2   = core.FT2
)

// ErrInfeasible reports that the constraints cannot support the requested
// schedule (no allowed processor, or fewer than K+1 for fault tolerance).
var ErrInfeasible = core.ErrInfeasible

// ScheduleBasic runs the non-fault-tolerant SynDEx baseline heuristic.
func ScheduleBasic(g *Graph, a *Architecture, sp *Spec, opts Options) (*Result, error) {
	return core.ScheduleBasic(g, a, sp, opts)
}

// ScheduleFT1 runs the first fault-tolerant heuristic (Section 6): K+1
// active replicas per operation, time-redundant communications guarded by
// timeout chains. Best suited to bus architectures.
func ScheduleFT1(g *Graph, a *Architecture, sp *Spec, k int, opts Options) (*Result, error) {
	return core.ScheduleFT1(g, a, sp, k, opts)
}

// ScheduleFT2 runs the second fault-tolerant heuristic (Section 7): K+1
// active replicas per operation with fully replicated communications. Best
// suited to point-to-point architectures.
func ScheduleFT2(g *Graph, a *Architecture, sp *Spec, k int, opts Options) (*Result, error) {
	return core.ScheduleFT2(g, a, sp, k, opts)
}

// ScheduleWith dispatches to the chosen heuristic; K is ignored by Basic.
func ScheduleWith(h Heuristic, g *Graph, a *Architecture, sp *Spec, k int, opts Options) (*Result, error) {
	return core.Schedule(h, g, a, sp, k, opts)
}

// ScheduleTuned runs the heuristic once deterministically plus `seeds`
// randomized-tie-break runs (the paper breaks pressure ties randomly) and
// returns the shortest-makespan schedule.
func ScheduleTuned(h Heuristic, g *Graph, a *Architecture, sp *Spec, k, seeds int, opts Options) (*Result, error) {
	return core.ScheduleTuned(h, g, a, sp, k, seeds, opts)
}

// ctxErr maps a cooperative-cancellation failure back to the context's own
// error so callers see the familiar context.Canceled/DeadlineExceeded.
func ctxErr(ctx context.Context, err error, canceled error) error {
	if errors.Is(err, canceled) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// ScheduleContext is ScheduleWith bounded by a context: when ctx is
// canceled or times out, the heuristic's greedy loop aborts cooperatively
// and the context's error is returned. A run that completes produces a
// schedule bit-identical to the context-free entry points. If opts.Cancel
// is already set, the same flag is shared, so either source can abort.
func ScheduleContext(ctx context.Context, h Heuristic, g *Graph, a *Architecture, sp *Spec, k int, opts Options) (*Result, error) {
	flag, stop := par.Watch(ctx, opts.Cancel)
	defer stop()
	opts.Cancel = flag
	res, err := core.Schedule(h, g, a, sp, k, opts)
	if err != nil {
		return nil, ctxErr(ctx, err, core.ErrCanceled)
	}
	return res, nil
}

// ScheduleTunedContext is ScheduleTuned bounded by a context (see
// ScheduleContext).
func ScheduleTunedContext(ctx context.Context, h Heuristic, g *Graph, a *Architecture, sp *Spec, k, seeds int, opts Options) (*Result, error) {
	flag, stop := par.Watch(ctx, opts.Cancel)
	defer stop()
	opts.Cancel = flag
	res, err := core.ScheduleTuned(h, g, a, sp, k, seeds, opts)
	if err != nil {
		return nil, ctxErr(ctx, err, core.ErrCanceled)
	}
	return res, nil
}

// Failure is one permanent fail-stop processor failure to inject.
type Failure = sim.Failure

// Scenario is a set of failures injected during a simulation.
type Scenario = sim.Scenario

// SingleFailure returns a scenario with one permanent failure.
func SingleFailure(proc string, iteration int, at float64) Scenario {
	return sim.Single(proc, iteration, at)
}

// IntermittentFailure returns a scenario with one fail-silent outage: proc
// is silent from (iteration, at) to (recIteration, recAt), then resumes. On
// a bus, FT1 re-integrates it once its messages are observed again.
func IntermittentFailure(proc string, iteration int, at float64, recIteration int, recAt float64) Scenario {
	return sim.Intermittent(proc, iteration, at, recIteration, recAt)
}

// SimConfig tunes a simulation run.
type SimConfig = sim.Config

// SimResult is a simulation outcome: per-iteration response times, output
// delivery, failover counts.
type SimResult = sim.Result

// IterationResult reports one simulated iteration.
type IterationResult = sim.IterationResult

// Simulate executes a schedule's distributed executive in virtual time
// under the failure scenario.
func Simulate(s *Schedule, g *Graph, a *Architecture, sp *Spec, sc Scenario, cfg SimConfig) (*SimResult, error) {
	return sim.Simulate(s, g, a, sp, sc, cfg)
}

// SimulateContext is Simulate bounded by a context: the simulator polls
// between iterations and aborts with the context's error when it is done.
// A run that completes is bit-identical to Simulate.
func SimulateContext(ctx context.Context, s *Schedule, g *Graph, a *Architecture, sp *Spec, sc Scenario, cfg SimConfig) (*SimResult, error) {
	flag, stop := par.Watch(ctx, cfg.Cancel)
	defer stop()
	cfg.Cancel = flag
	res, err := sim.Simulate(s, g, a, sp, sc, cfg)
	if err != nil {
		return nil, ctxErr(ctx, err, sim.ErrCanceled)
	}
	return res, nil
}

// Value is the data flowing along dependencies in the concurrent executive.
type Value = executive.Value

// OpFunc computes one operation in the concurrent executive.
type OpFunc = executive.OpFunc

// Program binds operation names to implementations for the concurrent
// executive.
type Program = executive.Program

// NewProgram returns an empty executive program.
func NewProgram() *Program { return executive.NewProgram() }

// KillSpec crashes a processor right before it executes an operation.
type KillSpec = executive.KillSpec

// RunConfig tunes a concurrent executive run.
type RunConfig = executive.Config

// RunResult is the outcome of a concurrent executive run.
type RunResult = executive.Result

// Run executes the schedule as a real concurrent distributed program (one
// goroutine per processor), computing the program's functions and failing
// over past crashed replicas — the second step of the AAA method.
func Run(s *Schedule, g *Graph, prog *Program, cfg RunConfig) (*RunResult, error) {
	return executive.Run(s, g, prog, cfg)
}

// GenerateExecutive emits the schedule's distributed executive as a
// standalone Go program (standard library only): the AAA method's second
// step, "from this static schedule, it produces automatically a real-time
// distributed executive implementing this schedule". The program runs the
// demonstration payload; replace its compute function with real code.
func GenerateExecutive(s *Schedule, g *Graph) (string, error) {
	return gen.Generate(s, g, gen.Options{})
}

// Analysis bounds a schedule's response time over every tolerated failure.
type Analysis = rt.Analysis

// AnalyzeWorstCase exhaustively sweeps the failure scenarios of up to K
// simultaneous crashes (and, for K >= 1, each single crash at every event
// boundary of the schedule) and returns response-time bounds, the evidence
// that the schedule satisfies its real-time constraint in faulty executions.
func AnalyzeWorstCase(s *Schedule, g *Graph, a *Architecture, sp *Spec, k int) (*Analysis, error) {
	return rt.Analyze(s, g, a, sp, k)
}

// Certification is the result of statically certifying a schedule against K
// processor failures: the verdict, pattern accounting, response-time bounds,
// and a minimal counterexample when the certificate fails.
type Certification = certify.Verdict

// Counterexample is a minimal failure pattern breaking a schedule, with its
// broken data path.
type Counterexample = certify.Counterexample

// ObsSink collects the engines' observability data: named atomic counters,
// accumulated phase timers, and span events for the Chrome-trace exporter. A
// nil *ObsSink is a valid disabled sink — every instrumented code path costs
// one nil check and produces no data. Set it as Options.Obs (scheduler),
// SimConfig.Obs (simulator), or CertifyOptions.Obs (certifier).
type ObsSink = obs.Sink

// NewObsSink returns an empty, enabled observability sink.
func NewObsSink() *ObsSink { return obs.NewSink() }

// WriteChromeTrace writes a Chrome-trace (Perfetto-loadable) JSON document
// combining the sink's build-phase spans and the schedule rendered as a Gantt
// timeline, one track per processor and link. Either argument may be nil to
// omit its half.
func WriteChromeTrace(w io.Writer, sink *ObsSink, s *Schedule) error {
	return obs.WriteChromeTrace(w, sink, s)
}

// WriteObsStats writes the sink's counters and timers as aligned text.
func WriteObsStats(w io.Writer, sink *ObsSink) {
	obs.WriteStats(w, sink)
}

// Certify statically proves (or refutes) that a scheduling result tolerates
// every pattern of at most k processor failures, without running the
// simulator: it enumerates the frontier failure patterns (smaller ones are
// implied by monotonicity), propagates data availability through surviving
// replicas, active transfers, and FT1 timeout chains, checks that every
// external output is still produced, and bounds the worst-case response
// time per pattern. When certification fails, the Certification carries a
// minimal counterexample.
func Certify(res *Result, g *Graph, a *Architecture, sp *Spec, k int) (*Certification, error) {
	if res == nil {
		return nil, errors.New("ftsched: nil scheduling result")
	}
	return certify.Certify(res.Schedule, g, a, sp, k)
}

// CertifyOptions tunes the certification engine: the worker-pool bound, the
// observability sink, and the cancellation flag. Every
// option combination produces a bit-identical Certification; the knobs only
// trade wall-clock time for resources.
type CertifyOptions = certify.Options

// CertifyWith is Certify with explicit engine options.
func CertifyWith(res *Result, g *Graph, a *Architecture, sp *Spec, k int, opts CertifyOptions) (*Certification, error) {
	if res == nil {
		return nil, errors.New("ftsched: nil scheduling result")
	}
	return certify.CertifyWith(res.Schedule, g, a, sp, k, opts)
}

// CertifyContext is CertifyWith bounded by a context: the frontier
// enumeration polls between failure patterns and aborts with the context's
// error when it is done. A run that completes produces a Certification
// bit-identical to the context-free entry points.
func CertifyContext(ctx context.Context, res *Result, g *Graph, a *Architecture, sp *Spec, k int, opts CertifyOptions) (*Certification, error) {
	if res == nil {
		return nil, errors.New("ftsched: nil scheduling result")
	}
	flag, stop := par.Watch(ctx, opts.Cancel)
	defer stop()
	opts.Cancel = flag
	v, err := certify.CertifyWith(res.Schedule, g, a, sp, k, opts)
	if err != nil {
		return nil, ctxErr(ctx, err, certify.ErrCanceled)
	}
	return v, nil
}
