package sim

import (
	"math"
	"sort"
)

// Runner is the mutable per-worker execution state of a compiled Model: a
// handful of flat arrays sized once at construction and rewound between
// iterations and scenarios, so a steady-state run allocates ~nothing. A
// Runner is not safe for concurrent use; give each worker its own (they can
// all share one Model).
type Runner struct {
	m *Model

	// Cross-iteration failure state, rewound by Reset between scenarios.
	hasFail     []bool // per processor
	fail        []Failure
	hasLinkFail []bool // per link
	linkFail    []LinkFailure
	detected    []bool // per processor: FT1 fail flags

	// Per-iteration state, rewound by resetIteration.
	seqIdx      []int32   // per processor: absolute next-instance index
	seqReady    []float64 // per processor: sequencer ready date
	seqDead     []bool    // per processor
	instState   []opState // per instance
	opDone      []float64 // [op*numProcs+proc]; NaN = not executed
	commAvail   []float64 // [edge*numProcs+proc]; NaN = not received
	linkFree    []float64 // per link, then -Inf for processor slots (see slotLink)
	sendState   []sendState
	sendHopDone []int32
	sendHopTime []float64
	sendArrival []float64
	sendSkipped []bool
	queueIdx    []int32 // per link: absolute next-queue-entry index

	// Next-action candidates, one slot per scheduled processor, link and
	// FT1 chain, in the legacy scan order (Model.procSlot, linkSlot,
	// chainBase). A slot is recomputed only after a step wrote state it
	// reads, which sets its dirty bit (run.go lists the write sites); live
	// marks the slots whose action is executable. A slot's start is
	// max(slotAt, linkFree[slotLink]), applied at scan time, so a linkFree
	// write invalidates nothing.
	slotAt       []float64 // per slot: earliest start before the link is free
	slotLink     []int32   // per slot: the link bounding the start (a processor's is the -Inf entry linkFree[nL])
	dirty, live  bitset
	chainSender  []int32 // per chain: next passive sender ready to transmit, while live
	chainSettled []bool  // per chain: absorbing within an iteration

	messages, lost, missed        int
	timeouts, falseDet, failovers int
	opsExec, opsCancel            int
	lastActivity                  float64
	it                            int
	trace                         bool
	events                        []Event
	resolveDirty                  bool
}

// NewRunner allocates a worker state sized for the model.
func (m *Model) NewRunner() *Runner {
	c := &m.c
	nP, nL := len(c.ProcNames), len(c.LinkNames)
	r := &Runner{
		m:            m,
		hasFail:      make([]bool, nP),
		fail:         make([]Failure, nP),
		hasLinkFail:  make([]bool, nL),
		linkFail:     make([]LinkFailure, nL),
		detected:     make([]bool, nP),
		seqIdx:       make([]int32, nP),
		seqReady:     make([]float64, nP),
		seqDead:      make([]bool, nP),
		instState:    make([]opState, len(c.Insts)),
		opDone:       make([]float64, len(c.OpNames)*nP),
		commAvail:    make([]float64, len(c.Edges)*nP),
		linkFree:     make([]float64, nL+1),
		sendState:    make([]sendState, len(c.Senders)),
		sendHopDone:  make([]int32, len(c.Senders)),
		sendHopTime:  make([]float64, len(c.Senders)),
		sendArrival:  make([]float64, len(c.Senders)),
		sendSkipped:  make([]bool, len(c.Senders)),
		queueIdx:     make([]int32, nL),
		slotAt:       make([]float64, m.nSlots),
		slotLink:     make([]int32, m.nSlots),
		dirty:        newBitset(int(m.nSlots)),
		live:         newBitset(int(m.nSlots)),
		chainSender:  make([]int32, len(m.chains)),
		chainSettled: make([]bool, len(m.chains)),
	}
	r.linkFree[nL] = math.Inf(-1)
	for k := range m.linkBase {
		r.slotLink[k] = int32(nL)
	}
	for k, l := range m.linkByName {
		r.slotLink[m.linkBase+int32(k)] = l
	}
	return r
}

// Reset rewinds the cross-scenario failure state (injected failures and FT1
// fail flags) so the Runner can execute the next scenario. It allocates
// nothing.
func (r *Runner) Reset() {
	for i := range r.hasFail {
		r.hasFail[i] = false
		r.detected[i] = false
	}
	for i := range r.hasLinkFail {
		r.hasLinkFail[i] = false
	}
}

// install records the (already validated) scenario in the per-index failure
// tables. Installing a failure before its activation iteration is
// behaviorally inert: every silence helper windows on the iteration number.
func (r *Runner) install(sc Scenario) {
	r.Reset()
	for _, f := range sc.Failures {
		p := r.m.a.ProcID(f.Proc)
		r.hasFail[p] = true
		r.fail[p] = f
	}
	for _, f := range sc.Links {
		l := r.m.a.LinkID(f.Link)
		r.hasLinkFail[l] = true
		r.linkFail[l] = f
	}
}

// resetIteration rewinds the per-iteration state. Allocation-free.
func (r *Runner) resetIteration(it int) {
	m := r.m
	for _, p := range m.schedProcs {
		r.seqIdx[p] = m.c.SeqStart[p]
		r.seqReady[p] = 0
		r.seqDead[p] = false
	}
	for i := range r.instState {
		r.instState[i] = opPending
	}
	fillNaN(r.opDone)
	fillNaN(r.commAvail)
	for i := range r.queueIdx {
		r.linkFree[i] = 0
		r.queueIdx[i] = m.c.QueueStart[i]
	}
	for i := range r.sendState {
		r.sendState[i] = sendUnknown
		r.sendHopDone[i] = 0
		r.sendHopTime[i] = 0
		r.sendArrival[i] = 0
		r.sendSkipped[i] = r.detected[m.c.Senders[i].Proc]
	}
	r.dirty.fill(int(m.nSlots)) // refreshing every slot rewrites live
	clear(r.chainSettled)
	r.messages, r.lost, r.missed = 0, 0, 0
	r.timeouts, r.falseDet, r.failovers = 0, 0, 0
	r.opsExec, r.opsCancel = 0, 0
	r.lastActivity = 0
	r.it = it
	r.events = nil
	r.resolveDirty = true
}

// fillNaN writes the not-yet sentinel over a state column.
func fillNaN(s []float64) {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
}

// Run executes the scenario with full result fidelity: the returned Result
// is reflect.DeepEqual to SimulateLegacy's on the same inputs. Per-iteration
// Outputs maps and the Result itself allocate; campaigns that only need
// aggregate statistics should use RunStats.
func (r *Runner) Run(sc Scenario, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if err := sc.validate(r.m.a); err != nil {
		return nil, err
	}
	r.install(sc)
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
				transient = true
				ins.faults.Inc()
			}
		}
		for _, f := range sc.Links {
			if f.Iteration == it {
				transient = true
				ins.faults.Inc()
			}
		}
		iterSpan := cfg.Obs.StartSpan("sim", "iteration")
		r.trace = cfg.Trace
		r.runCompiled(it)
		iterSpan.End()
		ins.accumulateRunner(r)
		ir := r.buildIterationResult()
		ir.Index = it
		ir.Transient = transient
		ir.DeadlineMet = cfg.Deadline <= 0 || (ir.Completed && ir.ResponseTime <= cfg.Deadline+1e-9)
		res.Iterations = append(res.Iterations, ir)
	}
	// The failure accumulators list only failures that activated within the
	// simulated horizon (the legacy engine never learns of later ones);
	// scanning in name order yields them already sorted.
	c := &r.m.c
	for _, p := range r.m.procByName {
		if r.hasFail[p] && r.fail[p].Iteration < cfg.Iterations {
			res.FailedProcs = append(res.FailedProcs, c.ProcNames[p])
			if !r.fail[p].Permanent() {
				res.RecoveredProcs = append(res.RecoveredProcs, c.ProcNames[p])
			}
		}
		if r.detected[p] {
			res.DetectedProcs = append(res.DetectedProcs, c.ProcNames[p])
		}
	}
	for _, l := range r.m.linkByName {
		if r.hasLinkFail[l] && r.linkFail[l].Iteration < cfg.Iterations {
			res.FailedLinks = append(res.FailedLinks, c.LinkNames[l])
		}
	}
	return res, nil
}

// RunConfig tunes a lean statistics-only run.
type RunConfig struct {
	// Iterations is the number of iterations to simulate (default 1).
	Iterations int
	// Deadline, when positive, is the per-iteration response-time
	// constraint counted in Stats.DeadlineMisses.
	Deadline float64
}

// Stats is the allocation-free aggregate of one scenario run: everything a
// campaign folds into its streaming accumulators, without the per-iteration
// Outputs maps and event slices of a full Result.
type Stats struct {
	// Iterations simulated.
	Iterations int
	// Completed counts iterations that produced every output.
	Completed int
	// DeadlineMisses counts iterations whose response time exceeded the
	// deadline (or that did not complete), when a deadline was set.
	DeadlineMisses int
	// WorstResponse and SumResponse aggregate the per-iteration response
	// times (WorstIteration is the iteration achieving WorstResponse).
	WorstResponse  float64
	WorstIteration int
	SumResponse    float64
	// Messages, Timeouts, FalseDetections, Failovers, Lost, Missed,
	// OpsExecuted, and OpsCancelled total the engine tallies over all
	// iterations.
	Messages        int
	Timeouts        int
	FalseDetections int
	Failovers       int
	Lost            int
	Missed          int
	OpsExecuted     int
	OpsCancelled    int
}

// RunStats executes the scenario and returns aggregate statistics only. In
// steady state it allocates nothing: the scenario must already be valid
// (campaign generators construct valid ones by design; use Model.Validate
// for untrusted input).
func (r *Runner) RunStats(sc Scenario, cfg RunConfig) Stats {
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 1
	}
	r.install(sc)
	r.trace = false
	var st Stats
	st.Iterations = iters
	for it := 0; it < iters; it++ {
		r.runCompiled(it)
		resp, completed := r.iterationResponse()
		st.SumResponse += resp
		if resp > st.WorstResponse {
			st.WorstResponse = resp
			st.WorstIteration = it
		}
		if completed {
			st.Completed++
		}
		if cfg.Deadline > 0 && !(completed && resp <= cfg.Deadline+1e-9) {
			st.DeadlineMisses++
		}
		st.Messages += r.messages
		st.Timeouts += r.timeouts
		st.FalseDetections += r.falseDet
		st.Failovers += r.failovers
		st.Lost += r.lost
		st.Missed += r.missed
		st.OpsExecuted += r.opsExec
		st.OpsCancelled += r.opsCancel
	}
	return st
}

// iterationResponse computes the response time and completeness of the just
// finished iteration without allocating.
func (r *Runner) iterationResponse() (resp float64, completed bool) {
	m := r.m
	completed = true
	for _, out := range m.c.Outputs {
		best := math.Inf(1)
		for _, p := range m.schedProcs {
			if d := r.opDone[out*m.nP+p]; !math.IsNaN(d) && d < best {
				best = d
			}
		}
		if math.IsInf(best, 1) {
			completed = false
			continue
		}
		if best > resp {
			resp = best
		}
	}
	return resp, completed
}

// buildIterationResult assembles the full per-iteration report, mirroring
// the legacy engine's report().
func (r *Runner) buildIterationResult() IterationResult {
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].Start < r.events[j].Start })
	ir := IterationResult{
		Trace:           r.events,
		Outputs:         make(map[string]bool),
		MessagesSent:    r.messages,
		TimeoutsFired:   r.timeouts,
		FalseDetections: r.falseDet,
		End:             r.lastActivity,
		Completed:       true,
	}
	m := r.m
	for _, out := range m.c.Outputs {
		best := math.Inf(1)
		for _, p := range m.schedProcs {
			if d := r.opDone[out*m.nP+p]; !math.IsNaN(d) && d < best {
				best = d
			}
		}
		produced := !math.IsInf(best, 1)
		ir.Outputs[m.c.OpNames[out]] = produced
		if !produced {
			ir.Completed = false
			continue
		}
		if best > ir.ResponseTime {
			ir.ResponseTime = best
		}
	}
	return ir
}

// accumulateRunner folds one finished iteration's tallies into the counters.
func (in *simInstruments) accumulateRunner(r *Runner) {
	in.delivered.Add(int64(r.messages))
	in.lost.Add(int64(r.lost))
	in.missed.Add(int64(r.missed))
	in.timeouts.Add(int64(r.timeouts))
	in.falseDet.Add(int64(r.falseDet))
	in.failovers.Add(int64(r.failovers))
	in.opsExec.Add(int64(r.opsExec))
	in.opsCancel.Add(int64(r.opsCancel))
}
