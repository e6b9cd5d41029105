// Command ftlint is the multichecker for ftsched's domain-specific static
// analyzers (see DESIGN.md §10, §12, and §15): the directive-aware suite of
// mapiter, nondet, infwcet, obssafe, errprop, and the interprocedural
// contract passes epochpurity, cancelpoll, and hotalloc, which ride the
// package-local call graph and function-summary facts engine. It runs over
// package patterns:
//
//	ftlint ./...
//
// Packages are type-checked against the go command's export data, and
// function summaries cross package boundaries in process. Only shipped
// sources are checked: the invariants bind the scheduler, not its tests, so
// _test.go files are exempt.
//
// Flags:
//
//	-fix             apply suggested fixes (gofmt-clean, atomic per fix)
//	-sarif file      write a SARIF 2.1.0 report ("-" for stdout)
//	-baseline file   report and gate only on findings absent from the baseline
//	-baseline-write file   record the current findings as the new baseline
//	-list            print the analyzer names and one-line docs
//	-analyzers a,b   run only the named analyzers; stale-directive checks
//	                 follow the selection
//
// Exit status: 0 with no findings, 1 when diagnostics were reported, 2 on
// operational errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/load"
	"ftsched/internal/analysis/passes"
	"ftsched/internal/analysis/summary"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// checkFlagCombos rejects contradictory flag combinations and unknown
// analyzer names up front, before any packages are loaded. It returns the
// selected analyzer set (the full suite when analyzers is empty).
func checkFlagCombos(fix bool, sarif, baseline, baselineWrite, analyzers string) ([]*analysis.Analyzer, error) {
	if fix && sarif == "-" {
		return nil, errors.New("-fix rewrites the tree the SARIF report describes; write the report to a file, or run the two modes separately")
	}
	if baseline != "" && baselineWrite != "" {
		return nil, errors.New("-baseline and -baseline-write are mutually exclusive: gate against the old baseline or record a new one, not both")
	}
	selected, err := passes.Select(analyzers)
	if err != nil {
		return nil, err
	}
	return selected, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("ftlint", flag.ContinueOnError)
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source files")
	sarif := fs.String("sarif", "", "write a SARIF 2.1.0 report to `file` (\"-\" for stdout)")
	baseline := fs.String("baseline", "", "suppress findings recorded in baseline `file`; gate on the rest")
	baselineWrite := fs.String("baseline-write", "", "record the current findings as baseline `file` and exit 0")
	list := fs.Bool("list", false, "print the analyzer names and one-line docs, then exit")
	analyzers := fs.String("analyzers", "", "run only the named analyzers (comma-separated); stale-directive checks follow the selection")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ftlint [-C dir] [-fix] [-list] [-analyzers a,b] [-sarif file] [-baseline file | -baseline-write file] [packages]\n\nAnalyzers:\n")
		for _, a := range passes.All() {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range passes.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := checkFlagCombos(*fix, *sarif, *baseline, *baselineWrite, *analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 2
	}
	units, err := load.Packages(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 2
	}
	// Interprocedural facts: compute summaries for every loaded unit in
	// dependency order, so callee facts reach callers across packages.
	summary.AttachAll(units)
	diags, err := analysis.Check(units, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 2
	}

	if *baselineWrite != "" {
		if err := analysis.WriteBaseline(*baselineWrite, diags); err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ftlint: recorded %d finding(s) in %s\n", len(diags), *baselineWrite)
		return 0
	}
	if *baseline != "" {
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 2
		}
		fresh, stale := b.Filter(diags)
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "ftlint: %d baseline entr%s matched nothing (fixed findings?); regenerate with -baseline-write\n",
				stale, plural(stale, "y", "ies"))
		}
		diags = fresh
	}

	if *sarif != "" {
		var w io.Writer = os.Stdout
		if *sarif != "-" {
			f, err := os.Create(*sarif)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ftlint:", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := analysis.WriteSARIF(w, diags, selected); err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 2
		}
	}

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if *fix {
		res, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ftlint: applied %d fix(es) to %d file(s), skipped %d overlapping\n",
			res.Applied, len(res.Changed), res.Skipped)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
