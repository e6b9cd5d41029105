package main

import (
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
