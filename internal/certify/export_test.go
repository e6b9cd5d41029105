package certify

import (
	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
	"ftsched/internal/spec"
)

// RefCertify gives the external tests the whole-verdict reference.
var RefCertify = refCertify

// refCertify is the reference certificate the engine is compared with: the
// same frontier order, merge and greedy shrink as CertifyWith, run
// sequentially, with every failure set evaluated from scratch by evalFull
// instead of incrementally from the failure-free fixpoint.
func refCertify(s *sched.Schedule, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, k int) (*Verdict, error) {
	c, err := sched.CompileValid(s, g, a, sp)
	if err != nil {
		return nil, err
	}
	m := newModel(c)
	v := &Verdict{Mode: s.Mode, ScheduleK: s.K, K: k, Procs: len(c.ProcNames)}
	ff := m.evalFull(nil, false)
	if !ff.completed {
		v.Counterexample = m.witness(nil, ff)
		return v, nil
	}
	v.FailureFreeBound, v.WorstBound, v.WorstSteadyBound = ff.resp, ff.resp, ff.resp
	size := min(k, v.Procs)
	enum := newPatternEnum(v.Procs, size)
	for sub := enum.next(); sub != nil; sub = enum.next() {
		r := m.evalFull(sub, false)
		pr := patternResult{sub: sub, completed: r.completed, resp: r.resp, steady: r.resp}
		if r.completed && c.Mode == sched.ModeFT1 {
			pr.steady = m.evalFull(sub, true).resp
		}
		if v.consume(m, pr) {
			minimal := refShrink(m, sub)
			v.Counterexample = m.witness(minimal, m.evalFull(minimal, false))
			return v, nil
		}
	}
	for i := 0; i < size; i++ {
		v.PatternsImplied = addSat(v.PatternsImplied, binomial(v.Procs, i))
	}
	v.Certified = true
	return v, nil
}

// refShrink is shrink over evalFull: drop, in name order, every processor
// whose removal still loses an output, until none can be dropped.
func refShrink(m *model, failed []int32) []int32 {
	set := append([]int32(nil), failed...)
	for changed := true; changed; {
		changed = false
		for _, p := range m.byName(set) {
			var without []int32
			for _, q := range set {
				if q != p {
					without = append(without, q)
				}
			}
			if !m.evalFull(without, false).completed {
				set, changed = without, true
			}
		}
	}
	return set
}
