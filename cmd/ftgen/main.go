// Command ftgen generates a standalone Go program implementing a schedule's
// distributed executive (the AAA method's second step):
//
//	ftgen -demo -heuristic ft1 -k 1 > executive.go
//	go run executive.go -iterations 3 -kill P2:1:B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftgen", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "algorithm graph JSON file")
		archPath  = fs.String("arch", "", "architecture JSON file")
		specPath  = fs.String("spec", "", "distribution constraints JSON file")
		heuristic = fs.String("heuristic", "ft1", "scheduler: basic, ft1, or ft2")
		k         = fs.Int("k", 1, "number of failures to tolerate")
		seeds     = fs.Int("seeds", 0, "extra randomized tie-breaking runs")
		pkg       = fs.String("package", "main", "generated package name")
		demo      = fs.Bool("demo", false, "use the paper's worked example")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}
	var (
		g  *graph.Graph
		a  *arch.Architecture
		sp *spec.Spec
	)
	if *demo {
		in := paperex.BusInstance()
		if h == core.FT2 {
			in = paperex.TriangleInstance()
		}
		g, a, sp = in.Graph, in.Arch, in.Spec
	} else {
		if *graphPath == "" || *archPath == "" || *specPath == "" {
			return fmt.Errorf("need -graph, -arch, and -spec (or -demo)")
		}
		g, a, sp = new(graph.Graph), new(arch.Architecture), spec.New()
		for _, l := range []struct {
			path string
			v    json.Unmarshaler
		}{{*graphPath, g}, {*archPath, a}, {*specPath, sp}} {
			data, err := os.ReadFile(l.path)
			if err != nil {
				return err
			}
			if err := l.v.UnmarshalJSON(data); err != nil {
				return fmt.Errorf("%s: %w", l.path, err)
			}
		}
	}
	res, err := core.ScheduleTuned(h, g, a, sp, *k, *seeds, core.Options{})
	if err != nil {
		return err
	}
	src, err := gen.Generate(res.Schedule, g, gen.Options{Package: *pkg})
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, src)
	return err
}
