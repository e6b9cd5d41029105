package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestDemoGeneration(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"// Code generated by ftsched (ft1 schedule, K=1",
		"package main",
		"var tables = Tables{",
		"func main() {",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q", frag)
		}
	}
}

func TestPackageFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-package", "exe"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "package exe\n") {
		t.Error("package flag ignored")
	}
}

func TestErrors(t *testing.T) {
	for i, args := range [][]string{
		{"-demo", "-heuristic", "warp"},
		{},
		{"-graph", "x.json", "-arch", "y.json", "-spec", "z.json"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFileInputs(t *testing.T) {
	const testdata = "../../examples/testdata/"
	var out strings.Builder
	err := run([]string{
		"-graph", testdata + "paper_graph.json",
		"-arch", testdata + "triangle_arch.json",
		"-spec", testdata + "triangle_spec.json",
		"-heuristic", "ft2", "-k", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ft2 schedule, K=1") {
		t.Error("ft2 generation header missing")
	}
}

// TestNegativeSeedsExits runs the built command: a negative -seeds is a
// one-line error on stderr and exit status 1, not a crash.
func TestNegativeSeedsExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ftgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ftgen: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-demo", "-seeds", "-1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code %d (%v), want 1\nstderr: %s", code, err, stderr.String())
	}
	if want := "ftgen: core: negative seeds (-1)\n"; stderr.String() != want || stdout.Len() != 0 {
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
