package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ftsched/internal/sim"
)

func TestFailFlagParsing(t *testing.T) {
	var f failList
	if err := f.Set("P2@1:3.5"); err != nil {
		t.Fatal(err)
	}
	want := sim.Failure{Proc: "P2", Iteration: 1, At: 3.5}
	if len(f) != 1 || f[0] != want {
		t.Errorf("parsed %+v, want %+v", f, want)
	}
	for _, bad := range []string{"P2", "P2@1", "P2@x:1", "P2@1:x", "P2@1:2:3@4", "P2@1:2~", "P2@1:2~3", "P2@1:2~3:4~5:6"} {
		var g failList
		if err := g.Set(bad); err == nil {
			t.Errorf("Set(%q) should fail", bad)
		}
	}
	if f.String() == "" {
		t.Error("String should render")
	}
}

func TestIntermittentFailFlag(t *testing.T) {
	var f failList
	if err := f.Set("P2@1:0~1:4"); err != nil {
		t.Fatal(err)
	}
	want := sim.Failure{Proc: "P2", Iteration: 1, At: 0, RecoverIteration: 1, RecoverAt: 4}
	if len(f) != 1 || f[0] != want {
		t.Errorf("parsed %+v, want %+v", f, want)
	}
	var out strings.Builder
	err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1",
		"-fail", "P2@1:0~1:4", "-iterations", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recovered: P2") {
		t.Errorf("output should mention recovery:\n%s", out.String())
	}
}

func TestDemoSimulation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1",
		"-fail", "P2@1:0", "-iterations", "3", "-gantt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"ft1 schedule, K=1", // gantt header
		"1 failure(s) injected",
		"failed processors: P2; detected: P2",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
	// The transient iteration row shows a fired timeout.
	if !strings.Contains(s, "true       10.5") {
		t.Errorf("transient response not visible:\n%s", s)
	}
}

func TestFileSimulation(t *testing.T) {
	const testdata = "../../examples/testdata/"
	var out strings.Builder
	err := run([]string{
		"-graph", testdata + "paper_graph.json",
		"-arch", testdata + "triangle_arch.json",
		"-spec", testdata + "triangle_spec.json",
		"-heuristic", "ft2", "-k", "1",
		"-fail", "P1@0:2", "-iterations", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failed processors: P1") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestWorstCaseFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1", "-worstcase", "-deadline", "11"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"worst transient response  10.5", "all outputs delivered     true", "meets deadline 11         true"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("missing %q:\n%s", frag, out.String())
		}
	}
}

func TestTraceAndDeadlineFlags(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1",
		"-fail", "P2@0:3", "-iterations", "1", "-trace", "-deadline", "9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"deadline met", "iteration 0 trace", "failover"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q:\n%s", frag, s)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-demo", "-heuristic", "warp"},
		{},
		{"-demo", "-fail", "PX@0:0"},
	}
	for i, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestNegativeSeedsExits runs the built command: a negative -seeds is a
// one-line error on stderr and exit status 1, not a crash.
func TestNegativeSeedsExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ftsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ftsim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-demo", "-seeds", "-1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code %d (%v), want 1\nstderr: %s", code, err, stderr.String())
	}
	if want := "ftsim: core: negative seeds (-1)\n"; stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q; want no output and stderr %q", stdout.String(), stderr.String(), want)
	}
}

// TestDemoRejectsFileFlags pins that -demo next to an input file is a usage
// error, not a run of the demo that ignores the file.
func TestDemoRejectsFileFlags(t *testing.T) {
	for _, name := range []string{"graph", "arch", "spec"} {
		var out strings.Builder
		err := run([]string{"-demo", "-" + name, "/nonexistent.json"}, &out)
		want := "usage: -" + name + " contradicts -demo (the demo provides its own inputs)"
		if err == nil || err.Error() != want {
			t.Errorf("-demo -%s: got error %v, want %q", name, err, want)
		}
		if out.Len() != 0 {
			t.Errorf("-demo -%s: wrote %d bytes of output", name, out.Len())
		}
	}
}
