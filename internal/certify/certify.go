// Package certify statically certifies the fault tolerance of a schedule:
// without running the simulator it enumerates processor-failure patterns and
// checks, by propagating data availability through the surviving replicas,
// active transfers, and FT1 failover chains, that every external output is
// still produced, deriving a worst-case response-time bound per pattern.
//
// Failure sets are pruned by monotonicity: within the model, failing more
// processors only removes providers and delays arrivals, so a certificate for
// every frontier pattern of min(K, #procs) failures covers all smaller
// patterns. Only the frontier is fully analyzed; the smaller sets are counted
// as implied.
//
// The frontier is evaluated incrementally: one failure-free fixpoint is
// computed per certificate, and each pattern re-propagates only the union of
// the failed processors' impact cones (see cone.go). Patterns stream through
// a bounded worker pool (Options.Workers, internal/par) and merge back in
// enumeration order, so the verdict is bit-identical at any worker count.
package certify

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// ErrCanceled reports that a certification run was aborted by
// Options.Cancel before reaching a verdict.
var ErrCanceled = errors.New("certify: certification canceled")

// Verdict is the result of certifying a schedule against K processor
// failures.
type Verdict struct {
	// Certified reports whether every failure pattern of at most K
	// processors still delivers every external output.
	Certified bool
	// Mode and ScheduleK identify the analyzed schedule.
	Mode      sched.Mode
	ScheduleK int
	// K is the tolerance level the certificate was requested for.
	K int
	// Procs is the number of processors failure sets are drawn from.
	Procs int
	// PatternsChecked counts the frontier failure sets fully analyzed.
	PatternsChecked int
	// PatternsImplied counts the strictly smaller failure sets covered by
	// monotone pruning instead of explicit analysis (saturating at the
	// integer maximum on very large architectures).
	PatternsImplied int
	// FailureFreeBound is the worst-case response time with no failure.
	FailureFreeBound float64
	// WorstBound is the worst response-time bound over all tolerated
	// patterns in the transient regime: failures are not yet detected, so
	// FT1 receivers wait out the full timeout chains.
	WorstBound float64
	// WorstPattern is a failure pattern attaining WorstBound (nil when K=0).
	WorstPattern []string
	// WorstSteadyBound is the worst bound once the failures are detected and
	// FT1 skips the timeouts of senders marked faulty. Equal to WorstBound
	// for ModeBasic and ModeFT2, which have no timeouts.
	WorstSteadyBound float64
	// Counterexample describes a minimal failing pattern when Certified is
	// false.
	Counterexample *Counterexample
}

// Counterexample is a concrete failure pattern breaking the schedule,
// shrunk to a minimal set, with the broken data path explained.
type Counterexample struct {
	// FailureSet is a minimal set of processors whose simultaneous failure
	// loses an output: removing any one of them keeps the schedule alive.
	FailureSet []string
	// Output is the first external output no longer produced.
	Output string
	// Path explains why no replica of Output can execute, one step per
	// line, from the output down to the failed providers.
	Path []string
}

// Options tunes how a certificate is computed. The zero value streams the
// frontier through GOMAXPROCS workers. Every option combination produces a
// bit-identical Verdict; the knobs only trade wall-clock time for
// resources.
type Options struct {
	// Workers bounds the worker pool streaming frontier patterns through
	// the evaluator. 0 uses GOMAXPROCS; 1 evaluates on the caller's
	// goroutine. Workers only read shared model state; results are merged
	// back in enumeration order, so the verdict (including WorstPattern and
	// the counterexample) is identical at any worker count.
	Workers int
	// Obs is an optional observability sink recording pattern enumeration
	// and pruning counts, evaluation counts, cone sizes, fixpoint rounds,
	// and per-phase spans. Nil disables collection.
	Obs *obs.Sink
	// Cancel, when non-nil, is a cooperative cancellation flag: the
	// frontier enumeration polls it between patterns and aborts with
	// ErrCanceled when it is raised. A run that completes is bit-identical
	// whether or not a flag was attached. Callers with a context should
	// prefer the ftsched.CertifyContext entry point, which raises the flag
	// when the context is done.
	Cancel *atomic.Bool
}

// canceled reports whether the cooperative cancellation flag is raised.
func (o Options) canceled() bool {
	return o.Cancel != nil && o.Cancel.Load()
}

// Certify statically checks that schedule s tolerates every pattern of at
// most k processor failures, given the problem it was produced for. The
// schedule must pass Validate; k may exceed the schedule's own K (the
// certificate will then normally fail, with a counterexample).
func Certify(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int) (*Verdict, error) {
	return CertifyWith(s, g, a, sp, k, Options{})
}

// CertifyWith is Certify with explicit engine options.
func CertifyWith(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int, opts Options) (*Verdict, error) {
	if s == nil {
		return nil, fmt.Errorf("certify: nil schedule")
	}
	if k < 0 {
		return nil, fmt.Errorf("certify: negative tolerance K=%d", k)
	}
	sink := opts.Obs
	indexSpan := sink.StartSpan("certify", "index")
	c, err := sched.CompileValid(s, g, a, sp)
	if err != nil {
		indexSpan.End()
		var invalid *sched.InvalidError
		if errors.As(err, &invalid) {
			return nil, fmt.Errorf("certify: schedule is not well-formed: %w", err)
		}
		return nil, fmt.Errorf("certify: %w", err)
	}
	m := newModel(c)
	m.ins.resolve(sink)
	m.obs = sink
	indexSpan.End()
	v := &Verdict{
		Mode:      s.Mode,
		ScheduleK: s.K,
		K:         k,
		Procs:     len(c.ProcNames),
	}

	// Failure-free baseline, plus a consistency check: the recomputed dates
	// must never exceed the schedule's own static dates.
	baseSpan := sink.StartSpan("certify", "baseline")
	ff := m.evalFull(nil, false)
	baseSpan.End()
	if !ff.completed {
		v.Counterexample = m.witness(nil, ff)
		return v, nil
	}
	for sid, end := range ff.end {
		if !ff.executed[sid] {
			continue
		}
		if in := c.Insts[sid]; end > in.End+1e-6 {
			return nil, fmt.Errorf("certify: internal inconsistency: recomputed completion %.4g of %s on %s exceeds static date %.4g",
				end, c.OpNames[in.Op], c.ProcNames[in.Proc], in.End)
		}
	}
	v.FailureFreeBound = ff.resp
	v.WorstBound = ff.resp
	v.WorstSteadyBound = ff.resp
	// Arm the incremental engine: keep the failure-free fixpoint and build
	// the per-processor impact cones every pattern evaluation re-propagates
	// from.
	coneSpan := sink.StartSpan("certify", "cones")
	m.prepareIncremental(ff)
	coneSpan.End()

	size := k
	if size > v.Procs {
		size = v.Procs
	}
	frontierSpan := sink.StartSpan("certify", "frontier")
	defer frontierSpan.End()
	failing, err := m.frontier(v, size, opts)
	if err != nil {
		return nil, err
	}
	if failing != nil {
		min := m.shrink(failing)
		v.Counterexample = m.witness(min, m.evalFull(min, false))
		return v, nil
	}
	for i := 0; i < size; i++ {
		v.PatternsImplied = addSat(v.PatternsImplied, binomial(v.Procs, i))
	}
	m.ins.implied.Add(int64(v.PatternsImplied))
	v.Certified = true
	return v, nil
}

// patternResult is one frontier pattern's evaluation outcome, carried from
// the evaluator (possibly a pool worker) to the in-order merge.
type patternResult struct {
	sub       []int32 // failed pids, ascending
	completed bool
	resp      float64 // transient worst-case response bound
	steady    float64 // steady-state bound (failures detected)
}

// checkPattern evaluates one frontier pattern: the transient bound, and for
// FT1 the steady-state bound with the failures detected.
func (m *model) checkPattern(sub []int32) patternResult {
	r := m.evalIncr(sub, false)
	pr := patternResult{sub: sub, completed: r.completed, resp: r.resp, steady: r.resp}
	if r.completed && m.c.Mode == sched.ModeFT1 {
		pr.steady = m.evalIncr(sub, true).resp
	}
	return pr
}

// consume merges one pattern result into the verdict, in enumeration order:
// worst transient bound with its first attaining pattern, worst steady
// bound. It reports whether the pattern fails, ending the frontier.
func (v *Verdict) consume(m *model, pr patternResult) bool {
	v.PatternsChecked++
	m.ins.patterns.Inc()
	if !pr.completed {
		return true
	}
	if pr.resp > v.WorstBound {
		v.WorstBound = pr.resp
		v.WorstPattern = m.names(pr.sub)
	}
	if pr.steady > v.WorstSteadyBound {
		v.WorstSteadyBound = pr.steady
	}
	return false
}

// frontier evaluates every size-`size` failure pattern in lexicographic
// order on opts.Workers workers and merges the results into v in that
// order, so the verdict is the same at any worker count: the same first-wins
// worst-bound tie-breaks, and on failure the lexicographically smallest
// failing pattern. It returns that pattern (as pids), or nil when every
// pattern tolerates the failures, or ErrCanceled if opts.Cancel was raised
// before the enumeration reached a verdict. Workers only read shared model
// state: the failure-free fixpoint, the cones and the indexes.
func (m *model) frontier(v *Verdict, size int, opts Options) ([]int32, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.ins.workers.Add(int64(workers))
	tracks := make([]string, workers)
	enum := newPatternEnum(v.Procs, size)
	var failing []int32
	interrupted := false
	par.Ordered(workers,
		func() ([]int32, bool) {
			if opts.canceled() {
				interrupted = true
				return nil, false
			}
			sub := enum.next()
			return sub, sub != nil
		},
		func(w int, sub []int32) patternResult {
			if tracks[w] == "" {
				tracks[w] = fmt.Sprintf("certify/w%d", w)
			}
			span := m.obs.StartSpan(tracks[w], "pattern")
			pr := m.checkPattern(sub)
			span.End()
			return pr
		},
		func(pr patternResult) bool {
			if v.consume(m, pr) {
				failing = pr.sub
				return true
			}
			return false
		})
	if failing == nil && interrupted {
		return nil, ErrCanceled
	}
	return failing, nil
}

// shrink greedily reduces a failing pattern to a minimal one: it keeps
// removing any processor whose removal still loses an output, until every
// remaining processor is necessary. Each round tries the members in name
// order. A frontier pattern has at most K members, so shrinking evaluates
// at most K(K+1) sets, each smaller than the pattern.
func (m *model) shrink(failed []int32) []int32 {
	set := append([]int32(nil), failed...)
	for changed := true; changed; { //ftlint:allow-nopoll bounded: every round that continues removes a processor from the set, so rounds <= |pattern|+1
		changed = false
		for _, p := range m.byName(set) {
			without := make([]int32, 0, len(set))
			for _, q := range set {
				if q != p {
					without = append(without, q)
				}
			}
			if !m.evalIncr(without, false).completed {
				set = without
				changed = true
			}
		}
	}
	return set
}

// names returns the processor names of pids, in the given order.
func (m *model) names(pids []int32) []string {
	var out []string
	for _, p := range pids {
		out = append(out, m.c.ProcNames[p])
	}
	return out
}

// byName returns a copy of pids sorted by processor name.
func (m *model) byName(pids []int32) []int32 {
	out := append([]int32(nil), pids...)
	sort.Slice(out, func(i, j int) bool { return m.c.ProcNames[out[i]] < m.c.ProcNames[out[j]] })
	return out
}

// binomial returns C(n, k), saturating at the integer maximum instead of
// wrapping: pattern accounting on very large architectures degrades to "at
// least this many" rather than to a silently negative or truncated count.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k // C(n,k) = C(n,n-k); the smaller loop also overflows later
	}
	c := 1
	for i := 0; i < k; i++ {
		if c > math.MaxInt/(n-i) {
			return math.MaxInt // the exact product no longer fits; saturate
		}
		c = c * (n - i) / (i + 1)
	}
	return c
}

// addSat is saturating addition for non-negative counts.
func addSat(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// fmtTime renders a schedule date compactly, with infinities spelled out.
func fmtTime(t float64) string {
	if math.IsInf(t, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", t)
}
