package sim_test

import (
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// TestMismatchedProblemIsCleanError feeds a valid schedule together with an
// architecture, graph, or spec it was not produced for. The compiled engines
// must refuse with an error naming the mismatch instead of panicking on a
// missing table entry.
func TestMismatchedProblemIsCleanError(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule

	twoProcs := arch.New("bus2")
	for _, p := range []string{"P1", "P2"} {
		if err := twoProcs.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := twoProcs.AddBus("bus", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	noE := graph.New("noE")
	for _, op := range []string{"A", "B", "C", "D"} {
		if err := noE.AddComp(op); err != nil {
			t.Fatal(err)
		}
	}
	noWCET := in.Spec.Clone()
	mainA := s.MainReplica("A")
	if err := noWCET.SetExec("A", mainA.Proc, spec.Inf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		g    *graph.Graph
		a    *arch.Architecture
		sp   *spec.Spec
		want string
	}{
		{"missing processor", in.Graph, twoProcs, in.Spec, "P3"},
		{"missing operation", noE, in.Arch, in.Spec, "unknown operation"},
		{"missing WCET", in.Graph, in.Arch, noWCET, `"A"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := sim.Compile(s, c.g, c.a, c.sp); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("sim.Compile: err = %v, want an error naming %s", err, c.want)
			}
			if _, err := certify.CertifyWith(s, c.g, c.a, c.sp, 1, certify.Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("certify.CertifyWith: err = %v, want an error naming %s", err, c.want)
			}
		})
	}
}
