// Package gen emits the distributed executive as a standalone Go program —
// the paper's step 2 made literal: "from this static schedule, it produces
// automatically a real-time distributed executive implementing this
// schedule" (Section 4.1).
//
// The program uses the standard library only. It is internal/executive's
// runtime.go verbatim (package clause and imports rewritten), the
// schedule's executive.Tables as a literal, and a short main that runs the
// demonstration payload (executive.DemoProgram, to be replaced with real
// code) under -iterations and -kill proc:iteration:op crash injections.
package gen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"

	"ftsched/internal/executive"
	"ftsched/internal/graph"
	"ftsched/internal/sched"
)

// Options tunes the generated program.
type Options struct {
	// Package is the generated package name (default "main").
	Package string
}

// Generate renders the schedule's executive as gofmt-formatted Go source.
func Generate(s *sched.Schedule, g *graph.Graph, opts Options) (string, error) {
	if opts.Package == "" {
		opts.Package = "main"
	}
	if s.NumOpSlots() == 0 {
		return "", fmt.Errorf("gen: empty schedule")
	}
	for _, op := range g.OpNames() {
		if len(s.Replicas(op)) == 0 {
			return "", fmt.Errorf("gen: operation %q is not scheduled", op)
		}
	}
	fset := token.NewFileSet()
	rt, err := parser.ParseFile(fset, "runtime.go", executive.RuntimeSource, parser.ImportsOnly)
	if err != nil {
		return "", fmt.Errorf("gen: embedded runtime: %w", err)
	}
	imports := []string{"flag", "fmt", "os", "strconv", "strings"} // main uses these
	for _, imp := range rt.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imports = append(imports, path)
	}
	slices.Sort(imports)

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by ftsched (%s schedule, K=%d, makespan %.3f). DO NOT EDIT.\n",
		s.Mode, s.K, s.Makespan())
	b.WriteString(`// A self-contained distributed executive: one goroutine per processor
// executes its static operation sequence; inputs resolve through the
// producer's replicas in election order, failing over past crashed ones.
//
// Usage:
//
//	go run <this file> -iterations 3 -kill P2:1:B
`)
	fmt.Fprintf(&b, "package %s\n\nimport (\n", opts.Package)
	for _, path := range slices.Compact(imports) {
		fmt.Fprintf(&b, "%q\n", path)
	}
	b.WriteString(")")
	b.WriteString(executive.RuntimeSource[fset.Position(rt.End()).Offset:])
	writeTables(&b, executive.NewTables(s, g))
	b.WriteString(mainSource)
	src, err := format.Source(b.Bytes())
	if err != nil {
		return "", fmt.Errorf("gen: %w", err)
	}
	return string(src), nil
}

// writeTables prints t as the program's tables variable. Each index row
// carries a comment naming what it indexes.
func writeTables(b *bytes.Buffer, t *executive.Tables) {
	fmt.Fprintf(b, "\n// tables is the schedule this program executes.\nvar tables = Tables{\nProcs: %#v,\nOps: %#v,\n", t.Procs, t.Ops)
	// label renders a name for a comment, escaped as in a Go string.
	label := func(name string) string { return strings.Trim(strconv.Quote(name), `"`) }
	rows := func(field string, rows [][]int, rowNames, names []string) {
		fmt.Fprintf(b, "%s: [][]int{\n", field)
		for i, row := range rows {
			nums, comment := make([]string, len(row)), label(rowNames[i])+":"
			for j, x := range row {
				nums[j], comment = strconv.Itoa(x), comment+" "+label(names[x])
			}
			fmt.Fprintf(b, "{%s}, // %s\n", strings.Join(nums, ", "), strings.TrimSuffix(comment, ":"))
		}
		b.WriteString("},\n")
	}
	rows("Seqs", t.Seqs, t.Procs, t.Ops)
	rows("Replicas", t.Replicas, t.Ops, t.Procs)
	rows("Strict", t.Strict, t.Ops, t.Ops)
	rows("Delayed", t.Delayed, t.Ops, t.Ops)
	fmt.Fprintf(b, "Mem: %#v,\nOutputs: %#v,\n}\n", t.Mem, t.Outputs)
}

// mainSource is the emitted program's entry point.
const mainSource = `
func main() {
	iterations := flag.Int("iterations", 1, "reactive-loop iterations to run")
	var kills []KillSpec
	flag.Func("kill", "crash as proc:iteration:op (repeatable)", func(v string) error {
		parts := strings.Split(v, ":")
		if len(parts) != 3 {
			return fmt.Errorf("want proc:iteration:op")
		}
		it, err := strconv.Atoi(parts[1])
		kills = append(kills, KillSpec{Proc: parts[0], Iteration: it, Op: parts[2]})
		return err
	})
	flag.Parse()

	res, err := tables.run(DemoProgram(&tables), Config{Iterations: *iterations, Kills: kills})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lost := false
	for i, out := range res.Iterations {
		fmt.Printf("iteration %d:\n", i)
		for _, c := range out.crashes {
			fmt.Printf("  [%s] CRASH before %s\n", c.Proc, c.Op)
		}
		for _, o := range tables.Outputs {
			if name := tables.Ops[o]; out.Produced[name] {
				fmt.Printf("  output %s = %d (from %s)\n", name, out.Values[name], out.from[name])
			} else {
				fmt.Printf("  output %s LOST\n", name)
			}
		}
		lost = lost || !out.Completed
	}
	if lost {
		fmt.Println("some outputs were lost")
		os.Exit(1)
	}
	fmt.Println("all outputs delivered")
}
`
