package faults

import (
	"testing"

	"ftsched/internal/arch"
)

func testArch(t *testing.T, n int) *arch.Architecture {
	t.Helper()
	a := arch.New("a")
	names := []string{"P1", "P2", "P3", "P4"}[:n]
	for _, p := range names {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddBus("bus", names...); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSingleSweep(t *testing.T) {
	a := testArch(t, 3)
	scs := SingleSweep(a, 1, []float64{0, 2.5})
	if len(scs) != 6 {
		t.Fatalf("len = %d, want 6", len(scs))
	}
	for _, sc := range scs {
		if len(sc.Failures) != 1 || sc.Failures[0].Iteration != 1 {
			t.Errorf("bad scenario %+v", sc)
		}
	}
	if scs[0].Failures[0].Proc != "P1" || scs[0].Failures[0].At != 0 {
		t.Errorf("first scenario = %+v", scs[0])
	}
}

func TestCrashDates(t *testing.T) {
	if got := CrashDates(10, 0); got != nil {
		t.Errorf("n=0: %v", got)
	}
	if got := CrashDates(10, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("n=1: %v", got)
	}
	got := CrashDates(10, 5)
	if len(got) != 5 || got[0] != 0 || got[4] != 10 || got[2] != 5 {
		t.Errorf("n=5: %v", got)
	}
}

func TestSubsets(t *testing.T) {
	a := testArch(t, 4)
	subs := Subsets(a, 2)
	if len(subs) != 6 { // C(4,2)
		t.Fatalf("len = %d, want 6", len(subs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if len(s) != 2 || s[0] == s[1] {
			t.Errorf("bad subset %v", s)
		}
		key := s[0] + "," + s[1]
		if seen[key] {
			t.Errorf("duplicate subset %v", s)
		}
		seen[key] = true
	}
	if got := Subsets(a, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("k=0: %v", got)
	}
	if got := Subsets(a, 5); len(got) != 0 {
		t.Errorf("k>n: %v", got)
	}
}

func TestSimultaneousSweep(t *testing.T) {
	a := testArch(t, 3)
	scs := SimultaneousSweep(a, 2, 0, 1.5)
	if len(scs) != 3 {
		t.Fatalf("len = %d, want 3", len(scs))
	}
	for _, sc := range scs {
		if len(sc.Failures) != 2 {
			t.Errorf("scenario %v", sc)
		}
		for _, f := range sc.Failures {
			if f.Iteration != 0 || f.At != 1.5 {
				t.Errorf("failure %+v", f)
			}
		}
	}
}

func TestStaggeredSweep(t *testing.T) {
	a := testArch(t, 3)
	scs := StaggeredSweep(a, 2, 0.5)
	if len(scs) != 3 {
		t.Fatalf("len = %d", len(scs))
	}
	for _, sc := range scs {
		if sc.Failures[0].Iteration != 0 || sc.Failures[1].Iteration != 1 {
			t.Errorf("staggered iterations wrong: %+v", sc)
		}
	}
}
