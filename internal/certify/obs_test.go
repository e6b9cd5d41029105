package certify_test

import (
	"reflect"
	"testing"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/paperex"
)

// TestCertifyObsCounters checks that an instrumented certification reaches
// the same verdict as a plain one and that its counters agree with the
// verdict's own pattern accounting. On a certified schedule every frontier
// pattern is evaluated once incrementally, plus once more with the failures
// detected under FT1, and the failure-free baseline is the one full
// evaluation.
func TestCertifyObsCounters(t *testing.T) {
	for _, c := range []struct {
		name string
		in   *paperex.Instance
		h    core.Heuristic
		per  int64 // incremental evaluations per frontier pattern
	}{
		{"ft1-bus", paperex.BusInstance(), core.FT1, 2},
		{"ft2-triangle", paperex.TriangleInstance(), core.FT2, 1},
	} {
		in := c.in
		res, err := core.Schedule(c.h, in.Graph, in.Arch, in.Spec, in.K, core.Options{})
		if err != nil {
			t.Fatalf("%s: Schedule: %v", c.name, err)
		}
		plain, err := certify.Certify(res.Schedule, in.Graph, in.Arch, in.Spec, in.K)
		if err != nil {
			t.Fatalf("%s: Certify: %v", c.name, err)
		}
		sink := obs.NewSink()
		v, err := certify.CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, in.K, certify.Options{Obs: sink})
		if err != nil {
			t.Fatalf("%s: CertifyWith: %v", c.name, err)
		}
		if !reflect.DeepEqual(v, plain) {
			t.Errorf("%s: instrumented verdict differs: %+v vs %+v", c.name, v, plain)
		}
		if !v.Certified || in.K < 1 {
			t.Fatalf("%s: want a certified K>=1 schedule, got K=%d:\n%s", c.name, in.K, v.Report())
		}

		snap := sink.Snapshot()
		if snap["certify.patterns.checked"] != int64(v.PatternsChecked) {
			t.Errorf("%s: certify.patterns.checked = %d, verdict says %d",
				c.name, snap["certify.patterns.checked"], v.PatternsChecked)
		}
		if snap["certify.patterns.implied"] != int64(v.PatternsImplied) {
			t.Errorf("%s: certify.patterns.implied = %d, verdict says %d",
				c.name, snap["certify.patterns.implied"], v.PatternsImplied)
		}
		if got, want := snap["certify.evals.incremental"], c.per*int64(v.PatternsChecked); got != want {
			t.Errorf("%s: certify.evals.incremental = %d, want %d × %d patterns", c.name, got, c.per, v.PatternsChecked)
		}
		if got := snap["certify.evals.full"]; got != 1 {
			t.Errorf("%s: certify.evals.full = %d, want 1 (the baseline)", c.name, got)
		}
		if _, ok := snap["certify.evals"]; ok || snap["certify.fixpoint.rounds"] == 0 {
			t.Errorf("%s: availability counters off: %v", c.name, snap)
		}
		timers := sink.Timers()
		for _, name := range []string{"index", "baseline", "cones", "frontier"} {
			if timers[name].Count != 1 {
				t.Errorf("%s: phase %q: %d spans, want 1", c.name, name, timers[name].Count)
			}
		}
	}
}

// TestCertifyNilSink pins that a nil Options.Obs never panics, on the
// pool's instrumented path too.
func TestCertifyNilSink(t *testing.T) {
	in := paperex.TriangleInstance()
	res, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT2: %v", err)
	}
	v, err := certify.CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, in.K, certify.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CertifyWith(nil sink): %v", err)
	}
	if !v.Certified {
		t.Errorf("FT2 triangle schedule should certify:\n%s", v.Report())
	}
}
