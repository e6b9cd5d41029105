// Package cli holds what the ftsched, ftsim and ftgen commands share: the
// -demo, -graph, -arch and -spec flags that name a problem, and its loading.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/spec"
)

// Problem is the set of problem flags registered on one flag set.
type Problem struct {
	fs                *flag.FlagSet
	demo              *bool
	graph, arch, spec *string
}

// ProblemFlags registers -demo, -graph, -arch and -spec on fs.
func ProblemFlags(fs *flag.FlagSet) *Problem {
	return &Problem{
		fs:    fs,
		graph: fs.String("graph", "", "algorithm graph JSON file"),
		arch:  fs.String("arch", "", "architecture JSON file"),
		spec:  fs.String("spec", "", "distribution constraints JSON file"),
		demo:  fs.Bool("demo", false, "schedule the paper's worked example (bus for basic/ft1, triangle for ft2)"),
	}
}

// Load returns the problem the flags name, once fs is parsed: the paper's
// worked example for heuristic h under -demo, else the three JSON files.
// Setting a file flag next to -demo is a usage error, not a silent choice.
func (p *Problem) Load(h core.Heuristic) (*graph.Graph, *arch.Architecture, *spec.Spec, error) {
	if *p.demo {
		set := map[string]bool{}
		p.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"graph", "arch", "spec"} {
			if set[name] {
				return nil, nil, nil, fmt.Errorf("usage: -%s contradicts -demo (the demo provides its own inputs)", name)
			}
		}
		in := paperex.BusInstance()
		if h == core.FT2 {
			in = paperex.TriangleInstance()
		}
		return in.Graph, in.Arch, in.Spec, nil
	}
	if *p.graph == "" || *p.arch == "" || *p.spec == "" {
		return nil, nil, nil, fmt.Errorf("need -graph, -arch, and -spec (or -demo)")
	}
	g, a, sp := new(graph.Graph), new(arch.Architecture), spec.New()
	for _, l := range []struct {
		path string
		v    json.Unmarshaler
	}{{*p.graph, g}, {*p.arch, a}, {*p.spec, sp}} {
		data, err := os.ReadFile(l.path)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := l.v.UnmarshalJSON(data); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", l.path, err)
		}
	}
	return g, a, sp, nil
}
