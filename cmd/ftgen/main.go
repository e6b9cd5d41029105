// Command ftgen generates a standalone Go program implementing a schedule's
// distributed executive (the AAA method's second step):
//
//	ftgen -demo -heuristic ft1 -k 1 > executive.go
//	go run executive.go -iterations 3 -kill P2:1:B
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftgen", flag.ContinueOnError)
	problem := cli.ProblemFlags(fs)
	var (
		heuristic = fs.String("heuristic", "ft1", "scheduler: basic, ft1, or ft2")
		k         = fs.Int("k", 1, "number of failures to tolerate")
		seeds     = fs.Int("seeds", 0, "extra randomized tie-breaking runs")
		pkg       = fs.String("package", "main", "generated package name")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}
	g, a, sp, err := problem.Load(h)
	if err != nil {
		return err
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
