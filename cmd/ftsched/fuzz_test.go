package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/graph"
)

// loadFiles loads a problem through the command's -graph/-arch/-spec flags.
func loadFiles(t *testing.T, graphPath, archPath, specPath string) error {
	fs := flag.NewFlagSet("ftsched", flag.ContinueOnError)
	problem := cli.ProblemFlags(fs)
	if err := fs.Parse([]string{"-graph", graphPath, "-arch", archPath, "-spec", specPath}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := problem.Load(core.FT1)
	return err
}

// FuzzLoadJSON feeds arbitrary bytes through the command's input path for
// each of the three input kinds, the other two being the paper's bus
// example: loading must reject or accept, never panic, and never accept an
// input its own package round-trip would refuse.
func FuzzLoadJSON(f *testing.F) {
	for _, file := range []string{"paper_graph.json", "bus_arch.json", "bus_spec.json", "triangle_arch.json", "triangle_spec.json"} {
		data, err := os.ReadFile(filepath.Join(testdata, file))
		if err != nil {
			f.Fatalf("read seed %s: %v", file, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	graphFile := filepath.Join(testdata, "paper_graph.json")
	archFile := filepath.Join(testdata, "bus_arch.json")
	specFile := filepath.Join(testdata, "bus_spec.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := loadFiles(t, path, archFile, specFile); err == nil {
			var g graph.Graph
			if err := g.UnmarshalJSON(data); err != nil {
				t.Fatalf("loading accepted a graph UnmarshalJSON rejects: %v", err)
			}
		}
		_ = loadFiles(t, graphFile, path, specFile)
		_ = loadFiles(t, graphFile, archFile, path)
	})
}
