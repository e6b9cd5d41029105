// Package sim is a discrete-event simulator for the real-time distributed
// executive generated from a static schedule (Section 4.1 of the paper). It
// executes the schedule's per-processor operation sequences and per-link
// communication orders in virtual time, injects permanent fail-stop
// processor failures, and reports per-iteration response times and output
// delivery.
//
// The simulator implements the runtime semantics of the three scheduler
// families:
//
//   - basic: every transfer has a single sender; a failed sender blocks its
//     consumers forever (the baseline is not fault-tolerant);
//   - ft1: transfers are failover chains (Fig. 12): the main replica sends;
//     each backup watches for the previous senders' messages and fails over
//     after a statically computed timeout, so a transient iteration pays
//     detection delays while subsequent iterations skip processors already
//     marked faulty;
//   - ft2: every replica sends; consumers use the first arrival and discard
//     the rest, so failures never add waiting time.
//
// Failures persist across iterations (permanent fail-stop, Section 5.1).
//
// Two execution engines implement the same semantics. Simulate compiles the
// schedule once into an immutable integer-indexed Model and runs it; the
// model can also be compiled explicitly with Compile and shared read-only by
// many Runners for Monte-Carlo campaigns (internal/campaign). SimulateLegacy
// is the original string-keyed engine, retained as the differential-testing
// reference; both paths produce reflect.DeepEqual Results.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// ErrCanceled reports that a simulation was aborted by Config.Cancel before
// completing its iterations.
var ErrCanceled = errors.New("sim: simulation canceled")

// ErrInvalidScenario reports a scenario that names a processor or link the
// architecture lacks, or that contradicts itself.
var ErrInvalidScenario = errors.New("sim: invalid scenario")

// Failure is one fail-stop processor failure. With the zero recovery fields
// it is permanent (the paper's Section 5.1 model); setting a recovery point
// makes it an intermittent fail-silent outage (the extension sketched in
// Section 6.1, Item 3): the processor is silent during the outage — its
// operations and transfers are lost, and messages addressed to it during
// the outage are missed — then resumes its static sequence. On a bus, a
// processor wrongly or transiently marked faulty is re-integrated as soon
// as the healthy processors observe one of its messages again.
type Failure struct {
	// Proc is the processor that fails.
	Proc string `json:"proc"`
	// Iteration is the 0-based iteration during which the failure occurs.
	Iteration int `json:"iteration"`
	// At is the failure date in iteration-local time. Activity completing
	// at or before At succeeds; anything in flight at At is lost.
	At float64 `json:"at"`
	// RecoverIteration and RecoverAt, when set (RecoverAt > 0 or
	// RecoverIteration > Iteration), give the iteration-local instant the
	// processor comes back to life. The recovery point must be after the
	// failure point.
	RecoverIteration int     `json:"recover_iteration,omitempty"`
	RecoverAt        float64 `json:"recover_at,omitempty"`
}

// Permanent reports whether the failure has no recovery point.
func (f Failure) Permanent() bool {
	return f.RecoverAt == 0 && f.RecoverIteration == 0
}

// LinkFailure is one fail-silent outage of a communication link: frames in
// flight when the outage begins are lost, frames scheduled during a
// permanent outage are never transmitted, and a bounded outage delays
// pending transfers until the recovery point. The paper assumes links do not
// fail (Section 5.1); this extension probes that assumption — on a bus it
// makes every FT1 timeout chain collapse at once, the stated weakness of
// the first solution.
type LinkFailure struct {
	// Link is the link that fails.
	Link string `json:"link"`
	// Iteration is the 0-based iteration during which the outage begins.
	Iteration int `json:"iteration"`
	// At is the outage date in iteration-local time.
	At float64 `json:"at"`
	// RecoverIteration and RecoverAt, when set, give the instant the link
	// carries frames again; zero values mean the outage is permanent.
	RecoverIteration int     `json:"recover_iteration,omitempty"`
	RecoverAt        float64 `json:"recover_at,omitempty"`
}

// Permanent reports whether the link outage has no recovery point.
func (f LinkFailure) Permanent() bool {
	return f.RecoverAt == 0 && f.RecoverIteration == 0
}

// Intermittent returns a fail-silent outage of proc from (iteration, at) to
// (recIteration, recAt).
func Intermittent(proc string, iteration int, at float64, recIteration int, recAt float64) Scenario {
	return Scenario{Failures: []Failure{{
		Proc: proc, Iteration: iteration, At: at,
		RecoverIteration: recIteration, RecoverAt: recAt,
	}}}
}

// Scenario is a set of failures injected during a simulation.
type Scenario struct {
	Failures []Failure `json:"failures,omitempty"`
	// Links holds fail-silent link outages (none in the paper's model).
	Links []LinkFailure `json:"links,omitempty"`
}

// Single returns a scenario with one failure.
func Single(proc string, iteration int, at float64) Scenario {
	return Scenario{Failures: []Failure{{Proc: proc, Iteration: iteration, At: at}}}
}

// SingleSweep returns one single-failure scenario per processor of a and
// crash date, processor-major: each processor fails alone in iteration 0 at
// each of n evenly spaced dates spanning [0, horizon], both ends included
// when n >= 2 (only date 0 when n is 1).
func SingleSweep(a *arch.Architecture, horizon float64, n int) []Scenario {
	var out []Scenario
	for _, p := range a.ProcessorNames() {
		for i := 0; i < n; i++ {
			at := 0.0
			if n > 1 {
				at = horizon / float64(n-1) * float64(i)
			}
			out = append(out, Single(p, 0, at))
		}
	}
	return out
}

// SingleLink returns a scenario with one permanent link outage.
func SingleLink(link string, iteration int, at float64) Scenario {
	return Scenario{Links: []LinkFailure{{Link: link, Iteration: iteration, At: at}}}
}

// validate checks the scenario against the architecture. Both engines share
// it so their error behavior stays identical.
func (sc Scenario) validate(a *arch.Architecture) error {
	seen := map[string]bool{}
	for _, f := range sc.Failures {
		if !a.HasProcessor(f.Proc) {
			return fmt.Errorf("%w: fails unknown processor %q", ErrInvalidScenario, f.Proc)
		}
		if f.Iteration < 0 || f.At < 0 {
			return fmt.Errorf("%w: failure of %q has negative iteration or date", ErrInvalidScenario, f.Proc)
		}
		if !f.Permanent() {
			if f.RecoverIteration < f.Iteration ||
				(f.RecoverIteration == f.Iteration && f.RecoverAt <= f.At) {
				return fmt.Errorf("%w: recovery of %q precedes its failure", ErrInvalidScenario, f.Proc)
			}
		}
		if seen[f.Proc] {
			return fmt.Errorf("%w: processor %q fails twice", ErrInvalidScenario, f.Proc)
		}
		seen[f.Proc] = true
	}
	seenLink := map[string]bool{}
	for _, f := range sc.Links {
		if a.Link(f.Link) == nil {
			return fmt.Errorf("%w: fails unknown link %q", ErrInvalidScenario, f.Link)
		}
		if f.Iteration < 0 || f.At < 0 {
			return fmt.Errorf("%w: failure of link %q has negative iteration or date", ErrInvalidScenario, f.Link)
		}
		if !f.Permanent() {
			if f.RecoverIteration < f.Iteration ||
				(f.RecoverIteration == f.Iteration && f.RecoverAt <= f.At) {
				return fmt.Errorf("%w: recovery of link %q precedes its failure", ErrInvalidScenario, f.Link)
			}
		}
		if seenLink[f.Link] {
			return fmt.Errorf("%w: link %q fails twice", ErrInvalidScenario, f.Link)
		}
		seenLink[f.Link] = true
	}
	return nil
}

// Config tunes a simulation run.
type Config struct {
	// Iterations is the number of iterations of the reactive loop to
	// simulate. Defaults to 1.
	Iterations int
	// Deadline, when positive, is the real-time constraint checked on every
	// iteration: IterationResult.DeadlineMet reports whether the response
	// time stayed within it.
	Deadline float64
	// Trace records the executed activities of each iteration in
	// IterationResult.Trace, in chronological order.
	Trace bool
	// Obs, when non-nil, accumulates simulation counters across iterations
	// (messages delivered and lost, missed receptions, timeout firings,
	// failovers, fault activations, operations executed and cancelled) and a
	// span per iteration. Results are identical with or without a sink.
	Obs *obs.Sink
	// Cancel, when non-nil, is a cooperative cancellation flag: the
	// simulator polls it between iterations and aborts with ErrCanceled
	// when it is raised. A run that completes is bit-identical whether or
	// not a flag was attached. Callers with a context should prefer the
	// ftsched.SimulateContext entry point, which raises the flag when the
	// context is done.
	Cancel *atomic.Bool
}

// EventKind classifies trace events.
type EventKind int

// Trace event kinds.
const (
	// EventOp is an operation replica execution.
	EventOp EventKind = iota + 1
	// EventComm is a completed transfer hop.
	EventComm
	// EventFailover is a backup sender taking over after timeouts expired.
	EventFailover
	// EventKill is an operation lost to a processor failure.
	EventKill
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventOp:
		return "op"
	case EventComm:
		return "comm"
	case EventFailover:
		return "failover"
	case EventKill:
		return "kill"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one executed activity of a simulated iteration.
type Event struct {
	Kind EventKind
	// What identifies the activity: an operation name or a dependency.
	What string
	// Where is the processor (ops) or link (comms).
	Where string
	// Start and End are the actual dates.
	Start, End float64
}

// IterationResult reports one simulated iteration.
type IterationResult struct {
	// Index is the 0-based iteration number.
	Index int
	// ResponseTime is the latest delivery date over the produced outputs
	// (for each output extio, the earliest completion among its executed
	// replicas). Zero when no output was produced.
	ResponseTime float64
	// End is the date of the last activity (operation or transfer) in the
	// iteration.
	End float64
	// Outputs maps each output extio to whether at least one replica of it
	// executed.
	Outputs map[string]bool
	// Completed reports whether every output was produced.
	Completed bool
	// MessagesSent counts the inter-processor transfers that actually
	// occupied a link.
	MessagesSent int
	// TimeoutsFired counts the failover timeouts that expired (FT1).
	TimeoutsFired int
	// FalseDetections counts senders that were marked faulty because their
	// message arrived after its deadline although they were alive (FT1,
	// Section 6.1 Item 3).
	FalseDetections int
	// Transient reports whether a new failure occurred in this iteration.
	Transient bool
	// DeadlineMet reports whether the response time stayed within
	// Config.Deadline; true when no deadline was configured.
	DeadlineMet bool
	// Trace holds the executed activities when Config.Trace is set.
	Trace []Event
}

// Result is the outcome of a simulation.
type Result struct {
	// Iterations holds one entry per simulated iteration.
	Iterations []IterationResult
	// FailedProcs lists, sorted, the processors that failed at some point.
	FailedProcs []string
	// RecoveredProcs lists, sorted, the processors whose failure was an
	// intermittent outage with a recovery point.
	RecoveredProcs []string
	// DetectedProcs lists, sorted, the processors marked faulty by the
	// failover machinery (FT1) and still marked at the end (a recovered
	// processor observed on the bus is un-marked).
	DetectedProcs []string
	// FailedLinks lists, sorted, the links that suffered an outage at some
	// point.
	FailedLinks []string
}

// Simulate executes the schedule under the scenario. The graph,
// architecture, and constraints must be the ones the schedule was produced
// from.
//
// The schedule is compiled into a dense Model first (see Compile); callers
// running many scenarios against one schedule should compile once and reuse
// Runners instead, which amortizes this step to zero.
func Simulate(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, sc Scenario, cfg Config) (*Result, error) {
	if err := sc.validate(a); err != nil {
		return nil, err
	}
	m, err := Compile(s, g, a, sp)
	if err != nil {
		return nil, err
	}
	return m.NewRunner().Run(sc, cfg)
}

// SimulateLegacy executes the schedule under the scenario with the original
// string-keyed single-scenario engine. It is a test reference only: the
// differential tests require the compiled path to stay reflect.DeepEqual to
// it, and no command or benchmark runs it. Callers use Simulate.
func SimulateLegacy(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, sc Scenario, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if err := sc.validate(a); err != nil {
		return nil, err
	}

	st := &simState{
		failures:     make(map[string]Failure),
		linkFailures: make(map[string]LinkFailure),
		detected:     make(map[string]bool),
	}
	var ins simInstruments
	ins.resolve(cfg.Obs)
	res := &Result{}
	for it := 0; it < cfg.Iterations; it++ {
		if cfg.Cancel != nil && cfg.Cancel.Load() {
			return nil, ErrCanceled
		}
		transient := false
		for _, f := range sc.Failures {
			if f.Iteration == it {
				st.failures[f.Proc] = f
				transient = true
				ins.faults.Inc()
			}
		}
		for _, f := range sc.Links {
			if f.Iteration == it {
				st.linkFailures[f.Link] = f
				transient = true
				ins.faults.Inc()
			}
		}
		iterSpan := cfg.Obs.StartSpan("sim", "iteration")
		e := newEngine(s, g, a, sp, st, it)
		e.trace = cfg.Trace
		ir := e.run()
		iterSpan.End()
		ins.accumulate(e)
		ir.Index = it
		ir.Transient = transient
		ir.DeadlineMet = cfg.Deadline <= 0 || (ir.Completed && ir.ResponseTime <= cfg.Deadline+1e-9)
		res.Iterations = append(res.Iterations, ir)
	}
	for p, f := range st.failures { //ftlint:order-insensitive both accumulators are sorted immediately below
		res.FailedProcs = append(res.FailedProcs, p)
		if !f.Permanent() {
			res.RecoveredProcs = append(res.RecoveredProcs, p)
		}
	}
	sort.Strings(res.FailedProcs)
	sort.Strings(res.RecoveredProcs)
	for p := range st.detected { //ftlint:order-insensitive the accumulator is sorted immediately below
		res.DetectedProcs = append(res.DetectedProcs, p)
	}
	sort.Strings(res.DetectedProcs)
	for l := range st.linkFailures { //ftlint:order-insensitive the accumulator is sorted immediately below
		res.FailedLinks = append(res.FailedLinks, l)
	}
	sort.Strings(res.FailedLinks)
	return res, nil
}

// simState carries failure knowledge across iterations.
type simState struct {
	failures     map[string]Failure
	linkFailures map[string]LinkFailure
	detected     map[string]bool
}

// silence returns the window [from, to) of iteration-local time during
// which proc is silent in iteration it. ok is false when proc is fully
// alive during the iteration; a permanent failure yields to = +Inf.
func (st *simState) silence(proc string, it int) (from, to float64, ok bool) {
	f, exists := st.failures[proc]
	if !exists {
		return 0, 0, false
	}
	return silenceWindow(f.Iteration, f.At, f.RecoverIteration, f.RecoverAt, f.Permanent(), it)
}

// linkSilence is silence for link outages.
func (st *simState) linkSilence(link string, it int) (from, to float64, ok bool) {
	f, exists := st.linkFailures[link]
	if !exists {
		return 0, 0, false
	}
	return silenceWindow(f.Iteration, f.At, f.RecoverIteration, f.RecoverAt, f.Permanent(), it)
}

// silenceWindow computes the iteration-local silence window of a failure
// given its activation and recovery points; shared by processor and link
// failures and by both engines.
func silenceWindow(iter int, at float64, recIter int, recAt float64, permanent bool, it int) (from, to float64, ok bool) {
	if it < iter {
		return 0, 0, false
	}
	from = 0.0
	if it == iter {
		from = at
	}
	if permanent {
		return from, math.Inf(1), true
	}
	switch {
	case it > recIter:
		return 0, 0, false
	case it == recIter:
		to = recAt
	default:
		to = math.Inf(1)
	}
	if to <= from {
		return 0, 0, false
	}
	return from, to, true
}

// deadAt keeps the permanent-failure view used by failover accounting: the
// local date at which proc stops for good during iteration it (+Inf while
// alive or merely intermittent).
func (st *simState) deadAt(proc string, it int) float64 {
	f, ok := st.failures[proc]
	if !ok || !f.Permanent() {
		return math.Inf(1)
	}
	if f.Iteration < it {
		return 0
	}
	if f.Iteration == it {
		return f.At
	}
	return math.Inf(1)
}

// silentDuring reports whether proc is silent at any point of [from, to).
func (st *simState) silentDuring(proc string, it int, from, to float64) bool {
	f, t, ok := st.silence(proc, it)
	if !ok {
		return false
	}
	return from < t && f < to
}

// linkSilentDuring reports whether link is silent at any point of [from, to).
func (st *simState) linkSilentDuring(link string, it int, from, to float64) bool {
	f, t, ok := st.linkSilence(link, it)
	if !ok {
		return false
	}
	return from < t && f < to
}

// silentAt reports whether proc is silent at instant t.
func (st *simState) silentAt(proc string, it int, t float64) bool {
	f, to, ok := st.silence(proc, it)
	return ok && t >= f-1e-9 && t < to
}
