package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const testdata = "../../examples/testdata/"

func TestDemoFT1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"ft1 schedule", "makespan: 9.4", "min replication: 2"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestDemoFT2UsesTriangle(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft2", "-k", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "L12") {
		t.Errorf("ft2 demo should run on the triangle:\n%s", out.String())
	}
}

func TestFileInputs(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-graph", testdata + "paper_graph.json",
		"-arch", testdata + "bus_arch.json",
		"-spec", testdata + "bus_spec.json",
		"-heuristic", "basic", "-format", "table",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "op I replica 0 (main)") {
		t.Errorf("table output:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `"mode": "ft1"`) || !strings.Contains(s, `"broadcast": true`) {
		t.Errorf("json output:\n%s", s)
	}
	if strings.Contains(s, "makespan:") {
		t.Error("json output must not mix in the summary line")
	}
}

func TestChainOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-format", "chain"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"(source)", "(sequence)", "(data)", "op   O"} {
		if !strings.Contains(s, frag) {
			t.Errorf("chain output missing %q:\n%s", frag, s)
		}
	}
}

func TestDotOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-format", "dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph") {
		t.Errorf("dot output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-demo", "-heuristic", "warp"},
		{"-demo", "-format", "warp"},
		{"-heuristic", "ft1"}, // no inputs, no -demo
		{"-graph", "nope.json", "-arch", "nope.json", "-spec", "nope.json"},
		{"-demo", "-heuristic", "ft1", "-k", "2"}, // infeasible (extios on 2 procs)
	}
	for i, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestDegradedFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "2", "-degraded"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "min replication: 2") {
		t.Errorf("degraded run output:\n%s", out.String())
	}
}

func TestSeedsFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "basic", "-seeds", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "makespan: 8,") {
		t.Errorf("tuned basic should reach 8.0:\n%s", out.String())
	}
}

func TestSVGOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-format", "svg"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "<svg") || strings.Contains(s, "makespan:") {
		t.Errorf("svg output malformed or mixed with summary:\n%.200s", s)
	}
}

func TestStepsFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-steps"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"step 1: candidates I -> I", "step 3: candidates B C D"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q:\n%s", frag, s)
		}
	}
}

func TestCertifyFlagAccepts(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1", "-certify"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"CERTIFIED for K=1", "frontier analyzed", "failure-free 8"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q:\n%s", frag, s)
		}
	}
}

func TestCertifyFlagRejectsBasic(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-demo", "-heuristic", "basic", "-k", "1", "-certify"}, &out)
	if err == nil {
		t.Fatal("certifying a non-replicated schedule for K=1 should fail")
	}
	s := out.String()
	for _, frag := range []string{"REJECTED for K=1", "minimal counterexample: fail {", "broken data path:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q:\n%s", frag, s)
		}
	}
}

func TestCertifyFlagFileInputs(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-graph", testdata + "paper_graph.json",
		"-arch", testdata + "triangle_arch.json",
		"-spec", testdata + "triangle_spec.json",
		"-heuristic", "ft2", "-k", "1", "-certify", "-format", "table",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CERTIFIED for K=1") {
		t.Errorf("ft2 triangle certification:\n%s", out.String())
	}
}

func TestCertifyFlagKeepsJSONStreamClean(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1", "-certify", "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "certification") {
		t.Errorf("certification report corrupts the JSON stream:\n%s", out.String())
	}
}

// TestNegativeSeedsExits runs the built command: a negative -seeds is a
// one-line error on stderr and exit status 1, not a crash.
func TestNegativeSeedsExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ftsched")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ftsched: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-demo", "-seeds", "-1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code %d (%v), want 1\nstderr: %s", code, err, stderr.String())
	}
	if want := "ftsched: core: negative seeds (-1)\n"; stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q; want no output and stderr %q", stdout.String(), stderr.String(), want)
	}
}
