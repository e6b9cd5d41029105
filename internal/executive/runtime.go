package executive

import (
	"fmt"
	"slices"
	"sync"
)

// Value is the data flowing along the algorithm graph's dependencies.
type Value any

// OpFunc computes one operation: it receives the iteration number and the
// operation's inputs keyed by predecessor name, and returns the operation's
// output. Functions must be deterministic (Section 4.2: two executions of
// an operation in the same iteration produce the same value) and safe for
// concurrent use (replicas run in parallel).
type OpFunc func(iteration int, inputs map[string]Value) Value

// Program binds operation names to their implementations.
type Program struct {
	fns     map[string]OpFunc
	memInit map[string]Value
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{fns: make(map[string]OpFunc), memInit: make(map[string]Value)}
}

// Bind attaches the implementation of op.
func (p *Program) Bind(op string, fn OpFunc) *Program {
	p.fns[op] = fn
	return p
}

// InitMem sets the initial value of a mem operation; every replica starts
// from the same value (Section 5.4, Item 2).
func (p *Program) InitMem(op string, v Value) *Program {
	p.memInit[op] = v
	return p
}

// KillSpec crashes a processor immediately before it executes Op in the
// given iteration (fail-stop: the processor does nothing from then on).
type KillSpec struct {
	Proc      string
	Iteration int
	Op        string
}

// Config tunes a run.
type Config struct {
	// Iterations is the number of reactive-loop iterations (default 1).
	Iterations int
	// Kills are the crash injections.
	Kills []KillSpec
}

// Tables is the flat form of a schedule that the runtime executes:
// operations and processors are referred to by their index in Ops and
// Procs.
type Tables struct {
	Procs    []string // processor names, sorted
	Ops      []string // operation names
	Seqs     [][]int  // per processor: its operations in schedule order
	Replicas [][]int  // per operation: its processors in election order, main first
	Strict   [][]int  // per operation: its same-iteration predecessors
	Delayed  [][]int  // per operation: its predecessors through delayed edges (mems)
	Mem      []bool   // per operation: whether it keeps state across iterations
	Outputs  []int    // the operations whose values a run reports
}

// IterationOutputs reports one iteration of the executive.
type IterationOutputs struct {
	// Values holds, for each output extio that was produced, the value of
	// its earliest-ranked surviving replica.
	Values map[string]Value
	// Produced maps every output extio to whether some replica produced it.
	Produced map[string]bool
	// Completed is true when every output was produced.
	Completed bool

	from    map[string]string // processor of each produced value's replica
	crashes []KillSpec        // processors killed in this iteration, in Procs order
}

// Result is the outcome of a run.
type Result struct {
	Iterations []IterationOutputs
	// CrashedProcs lists the processors killed during the run, sorted by
	// name.
	CrashedProcs []string
}

// promise is a single-assignment result of one operation replica.
type promise struct {
	done chan struct{}
	val  Value
	ok   bool
}

func newPromise() *promise { return &promise{done: make(chan struct{})} }

func (p *promise) fulfill(v Value) {
	p.val = v
	p.ok = true
	close(p.done)
}

func (p *promise) fail() { close(p.done) }

// wait blocks until the promise resolves and reports the value.
func (p *promise) wait() (Value, bool) {
	<-p.done
	return p.val, p.ok
}

// runner holds the cross-iteration state of one run. Each processor's
// goroutine writes only its own entries of crashed and of the per-instance
// slices, and the rest is read once the iteration's goroutines have
// finished, so no lock is needed.
type runner struct {
	t     *Tables
	prog  *Program
	kills [][3]int // proc, iteration, op

	crashed []bool  // per processor
	mem     []Value // per instance: op*len(Procs)+proc
}

// run validates the program and the crash injections against the tables,
// then executes cfg.Iterations iterations.
func (t *Tables) run(prog *Program, cfg Config) (*Result, error) {
	for i, op := range t.Ops {
		if !t.Mem[i] && prog.fns[op] == nil {
			return nil, fmt.Errorf("executive: operation %q has no bound function", op)
		}
	}
	r := &runner{t: t, prog: prog, crashed: make([]bool, len(t.Procs)), mem: make([]Value, len(t.Ops)*len(t.Procs))}
	for _, k := range cfg.Kills {
		p, op := slices.Index(t.Procs, k.Proc), slices.Index(t.Ops, k.Op)
		if p < 0 || op < 0 || !slices.Contains(t.Seqs[p], op) {
			return nil, fmt.Errorf("executive: kill spec targets %q on %q, which the schedule does not place there", k.Op, k.Proc)
		}
		if k.Iteration < 0 || k.Iteration >= cfg.Iterations {
			return nil, fmt.Errorf("executive: kill spec for %q has iteration %d outside [0, %d)", k.Proc, k.Iteration, cfg.Iterations)
		}
		r.kills = append(r.kills, [3]int{p, k.Iteration, op})
	}
	// Every mem replica starts from the program's initial value.
	for op, name := range t.Ops {
		if !t.Mem[op] {
			continue
		}
		init, ok := prog.memInit[name]
		if !ok {
			return nil, fmt.Errorf("executive: mem %q has no initial value", name)
		}
		for _, p := range t.Replicas[op] {
			r.mem[r.inst(op, p)] = init
		}
	}
	res := &Result{}
	for it := 0; it < cfg.Iterations; it++ {
		out := r.runIteration(it)
		res.Iterations = append(res.Iterations, out)
		for _, c := range out.crashes {
			res.CrashedProcs = append(res.CrashedProcs, c.Proc)
		}
	}
	slices.Sort(res.CrashedProcs)
	return res, nil
}

// inst numbers the replica instance of op on processor p.
func (r *runner) inst(op, p int) int { return op*len(r.t.Procs) + p }

// runIteration spawns one goroutine per live processor and collects the
// outputs once all of them finish (crashing counts as finishing).
func (r *runner) runIteration(it int) IterationOutputs {
	t := r.t
	// Fresh promises for every replica instance of this iteration.
	promises := make([]*promise, len(t.Ops)*len(t.Procs))
	for p, seq := range t.Seqs {
		for _, op := range seq {
			promises[r.inst(op, p)] = newPromise()
		}
	}
	crashedBefore := make([]int, len(t.Procs))
	var wg sync.WaitGroup
	for p, seq := range t.Seqs {
		crashedBefore[p] = -1
		if r.crashed[p] {
			// A dead processor resolves all its promises as failed so no
			// consumer blocks on it.
			for _, op := range seq {
				promises[r.inst(op, p)].fail()
			}
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			crashedBefore[p] = r.runProcessor(p, it, promises)
		}(p)
	}
	wg.Wait()

	out := IterationOutputs{
		Values:    make(map[string]Value),
		Produced:  make(map[string]bool),
		Completed: true,
		from:      make(map[string]string),
	}
	for p, op := range crashedBefore {
		if op >= 0 {
			out.crashes = append(out.crashes, KillSpec{Proc: t.Procs[p], Iteration: it, Op: t.Ops[op]})
		}
	}
	// Iteration boundary: each surviving mem replica updates its state from
	// the freshest producer value it can resolve (every promise is settled
	// once the WaitGroup clears).
	for op, preds := range t.Delayed {
		for _, p := range t.Replicas[op] {
			if r.crashed[p] {
				continue
			}
			for _, pred := range preds {
				if v, ok := r.resolveInput(pred, p, promises); ok {
					r.mem[r.inst(op, p)] = v
				}
			}
		}
	}
	for _, o := range t.Outputs {
		name := t.Ops[o]
		out.Produced[name] = false
		for _, p := range t.Replicas[o] {
			if v, ok := promises[r.inst(o, p)].wait(); ok {
				out.Values[name], out.from[name], out.Produced[name] = v, t.Procs[p], true
				break
			}
		}
		out.Completed = out.Completed && out.Produced[name]
	}
	return out
}

// runProcessor executes processor p's static sequence for one iteration and
// returns the operation it crashed before, or -1.
func (r *runner) runProcessor(p, it int, promises []*promise) int {
	seq := r.t.Seqs[p]
next:
	for i, op := range seq {
		if slices.Contains(r.kills, [3]int{p, it, op}) {
			r.crashed[p] = true
			// Fail-stop: every remaining promise of this processor resolves
			// as failed, which is how other processors detect the crash.
			for _, rest := range seq[i:] {
				promises[r.inst(rest, p)].fail()
			}
			return op
		}
		pr := promises[r.inst(op, p)]
		if r.t.Mem[op] {
			// A mem outputs its current state (written at the previous
			// iteration's boundary).
			pr.fulfill(r.mem[r.inst(op, p)])
			continue
		}
		inputs := make(map[string]Value)
		for _, pred := range r.t.Strict[op] {
			v, ok := r.resolveInput(pred, p, promises)
			if !ok {
				// More failures than the schedule tolerates: this replica
				// cannot compute; resolve as failed so consumers fail over.
				pr.fail()
				continue next
			}
			inputs[r.t.Ops[pred]] = v
		}
		pr.fulfill(r.prog.fns[r.t.Ops[op]](it, inputs))
	}
	return -1
}

// resolveInput implements the receive side of the executive: a local
// replica of the producer wins; otherwise the producer's replicas are
// consulted in election order, failing over past crashed or aborted ones
// (rank order gives the basic executive its single source, and both
// fault-tolerant executives their K-failure tolerance; values are identical
// across replicas by the determinism assumption, so any surviving rank is
// correct).
func (r *runner) resolveInput(src, p int, promises []*promise) (Value, bool) {
	if pr := promises[r.inst(src, p)]; pr != nil {
		if v, ok := pr.wait(); ok {
			return v, true
		}
		// The local replica aborted; fall through to remote replicas.
	}
	for _, rp := range r.t.Replicas[src] {
		if rp == p {
			continue
		}
		if v, ok := promises[r.inst(src, rp)].wait(); ok {
			return v, true
		}
	}
	return nil, false
}

// DemoProgram binds every operation of t to the demonstration payload, a
// deterministic int64 fold of the iteration number, the inputs in name
// order and the operation's name, and starts every mem at 0.
func DemoProgram(t *Tables) *Program {
	prog := NewProgram()
	for i, op := range t.Ops {
		if t.Mem[i] {
			prog.InitMem(op, int64(0))
		} else {
			prog.Bind(op, demoFunc(op))
		}
	}
	return prog
}

func demoFunc(op string) OpFunc {
	return func(iteration int, inputs map[string]Value) Value {
		names := make([]string, 0, len(inputs))
		for name := range inputs {
			names = append(names, name)
		}
		slices.Sort(names)
		acc := int64(iteration + 1)
		for _, name := range names {
			acc = acc*31 + inputs[name].(int64)
		}
		for _, c := range op {
			acc = acc*31 + int64(c)
		}
		return acc
	}
}
