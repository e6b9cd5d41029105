package gen

import (
	"bytes"
	"errors"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/executive"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func generateFor(t *testing.T, h core.Heuristic, k int) (string, *core.Result) {
	t.Helper()
	in := paperex.BusInstance()
	r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(r.Schedule, in.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return src, r
}

// buildProgram compiles the generated source with `go build` into a
// temporary directory outside any module (the program imports only the
// standard library, so this works offline) and returns the binary's path.
// It skips the test under -short or without a go toolchain.
func buildProgram(t *testing.T, src string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("compiling the generated program is slow")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "executive")
	cmd := exec.Command("go", "build", "-o", bin, path)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runProgram runs a built program and returns its standard output and
// error and its exit status.
func runProgram(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestGenerateContainsTables(t *testing.T) {
	src, _ := generateFor(t, core.FT1, 1)
	for _, frag := range []string{
		"// Code generated by ftsched (ft1 schedule, K=1",
		"package main",
		"var tables = Tables{",
		`Procs: []string{"P1", "P2", "P3"},`,
		"func main() {",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("generated source missing %q", frag)
		}
	}
	// Index rows, each commented with the names it stands for.
	for _, row := range []string{
		`\{0, 1, 3, 5, 6\},\s+// P1: I A C E O\n`, // P1's sequence
		`\{1, 0\},\s+// O: P2 P1\n`,               // O's election order
		`Outputs: +\[\]int\{6\},`,                 // O
	} {
		if !regexp.MustCompile(row).MatchString(src) {
			t.Errorf("generated source has no row matching %s", row)
		}
	}
}

// TestGenerateEmbedsRuntime: the program's runtime is runtime.go byte for
// byte after its import block, and the import block is the union of the
// runtime's imports and main's.
func TestGenerateEmbedsRuntime(t *testing.T) {
	src, _ := generateFor(t, core.FT1, 1)
	fset := token.NewFileSet()
	rt, err := parser.ParseFile(fset, "runtime.go", executive.RuntimeSource, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if body := executive.RuntimeSource[fset.Position(rt.End()).Offset:]; !strings.Contains(src, body) {
		t.Error("generated source does not contain the runtime verbatim")
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, imp := range f.Imports {
		got = append(got, imp.Path.Value)
	}
	if want := `"flag" "fmt" "os" "slices" "strconv" "strings" "sync"`; strings.Join(got, " ") != want {
		t.Errorf("imports %v, want %s", got, want)
	}
}

func TestGenerateErrors(t *testing.T) {
	in := paperex.BusInstance()
	if _, err := Generate(sched.New(sched.ModeBasic, 0), in.Graph, Options{}); err == nil {
		t.Error("empty schedule must error")
	}
}

func TestGeneratePackageOption(t *testing.T) {
	in := paperex.BusInstance()
	r, err := core.ScheduleBasic(in.Graph, in.Arch, in.Spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(r.Schedule, in.Graph, Options{Package: "executive"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package executive\n") {
		t.Error("package option ignored")
	}
}

// TestGeneratedSourceIsGofmtClean: Generate's output is a fixed point of
// format.Source for every heuristic on both paper instances and on a graph
// with a mem and delayed edges.
func TestGeneratedSourceIsGofmtClean(t *testing.T) {
	control, err := workload.ControlLoop(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := workload.BusArch(3)
	if err != nil {
		t.Fatal(err)
	}
	controlSpec, err := workload.Costs(rand.New(rand.NewSource(1)), control, bus, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
	if err != nil {
		t.Fatal(err)
	}
	instances := map[string]*paperex.Instance{
		"bus":      paperex.BusInstance(),
		"triangle": paperex.TriangleInstance(),
		"control":  {Graph: control, Arch: bus, Spec: controlSpec},
	}
	for name, in := range instances {
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			r, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			src, err := Generate(r.Schedule, in.Graph, Options{})
			if err != nil {
				t.Fatal(err)
			}
			formatted, err := format.Source([]byte(src))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, h, err)
			}
			if string(formatted) != src {
				t.Errorf("%s/%v: generated source is not gofmt-clean", name, h)
			}
		}
	}
}

// TestGeneratedProgramRuns compiles and executes the generated executive,
// failure-free and with a crash, checking output delivery.
func TestGeneratedProgramRuns(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)

	runProg := func(args ...string) (string, error) {
		out, errOut, code := runProgram(t, bin, args...)
		if code != 0 {
			return out + errOut, fmt.Errorf("exit status %d", code)
		}
		return out, nil
	}

	out, err := runProg("-iterations", "2")
	if err != nil {
		t.Fatalf("failure-free run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all outputs delivered") {
		t.Errorf("failure-free output:\n%s", out)
	}
	if strings.Count(out, "output O = ") != 2 {
		t.Errorf("expected 2 O outputs:\n%s", out)
	}
	failureFree := out

	// Crash the main replica of E in iteration 1: the backup delivers.
	victim := r.Schedule.MainReplica("E").Proc
	out, err = runProg("-iterations", "3", "-kill", victim+":1:E")
	if err != nil {
		t.Fatalf("crash run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all outputs delivered") {
		t.Errorf("crash run lost outputs:\n%s", out)
	}
	if !strings.Contains(out, "CRASH before E") {
		t.Errorf("crash not reported:\n%s", out)
	}

	// Determinism of the demo payload: two failure-free runs agree.
	out2, err := runProg("-iterations", "2")
	if err != nil {
		t.Fatal(err)
	}
	if out2 != failureFree {
		t.Errorf("deterministic runs differ:\n%s\nvs\n%s", out2, failureFree)
	}
}

// TestGeneratedProgramValueStability: killing different processors
// must never change the delivered value (replica determinism).
func TestGeneratedProgramValueStability(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)
	extract := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "output O = ") {
				// Strip the "(from Px)" part: the value must be identical,
				// the serving replica may differ.
				return strings.Split(strings.TrimSpace(line), " (from")[0]
			}
		}
		return ""
	}
	base, errOut, code := runProgram(t, bin)
	if code != 0 {
		t.Fatalf("exit status %d\n%s%s", code, base, errOut)
	}
	want := extract(base)
	if want == "" {
		t.Fatalf("no output line:\n%s", base)
	}
	for _, p := range r.Schedule.Procs() {
		op := r.Schedule.ProcSlots(p)[0].Op
		out, errOut, code := runProgram(t, bin, "-kill", p+":0:"+op)
		if code != 0 {
			t.Fatalf("kill %s: exit status %d\n%s%s", p, code, out, errOut)
		}
		if got := extract(out); got != want {
			t.Errorf("kill %s before %s: value %q, want %q", p, op, got, want)
		}
	}
}

// TestGeneratedProgramGolden pins the paper FT1 bus program's output, as
// recorded before the program embedded the executive's runtime.
func TestGeneratedProgramGolden(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"ft1_bus_iterations2.golden", []string{"-iterations", "2"}},
		{"ft1_bus_kill_E.golden", []string{"-iterations", "3", "-kill", r.Schedule.MainReplica("E").Proc + ":1:E"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		out, errOut, code := runProgram(t, bin, tc.args...)
		if code != 0 || out != string(want) {
			t.Errorf("%v: exit status %d, output\n%s%s\nwant\n%s", tc.args, code, out, errOut, want)
		}
	}
}

// TestGeneratedProgramRejectsBadKill: a crash injection naming no
// placement, or an iteration outside [0, -iterations), fails with
// executive.Run's message instead of being ignored.
func TestGeneratedProgramRejectsBadKill(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)
	in := paperex.BusInstance()
	for _, k := range []executive.KillSpec{
		{Proc: "P9", Iteration: 0, Op: "Z"},
		{Proc: "P2", Iteration: 7, Op: "B"},
	} {
		_, wantErr := executive.Run(r.Schedule, in.Graph, executive.DemoProgram(executive.NewTables(r.Schedule, in.Graph)),
			executive.Config{Kills: []executive.KillSpec{k}})
		if wantErr == nil {
			t.Fatalf("executive.Run accepts %+v", k)
		}
		out, errOut, code := runProgram(t, bin, "-kill", fmt.Sprintf("%s:%d:%s", k.Proc, k.Iteration, k.Op))
		if code == 0 || out != "" || errOut != wantErr.Error()+"\n" {
			t.Errorf("kill %+v: exit status %d, stdout %q, stderr %q; want a failure with %q", k, code, out, errOut, wantErr)
		}
	}
}

// TestGeneratedProgramRejectsBadIterations: fewer than one iteration
// fails with the runtime's message and exit status 2, crash injections or
// not, instead of reporting a run in which nothing ran.
func TestGeneratedProgramRejectsBadIterations(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)
	in := paperex.BusInstance()
	prog := executive.DemoProgram(executive.NewTables(r.Schedule, in.Graph))
	for _, args := range [][]string{
		{"-iterations", "0"},
		{"-iterations", "-2"},
		{"-iterations", "-2", "-kill", "P1:0:I"},
	} {
		n, _ := strconv.Atoi(args[1])
		want := fmt.Sprintf("executive: %d iterations: want at least 1", n)
		if n != 0 {
			// Run reads only the zero value as one iteration.
			if _, err := executive.Run(r.Schedule, in.Graph, prog, executive.Config{Iterations: n}); err == nil || err.Error() != want {
				t.Fatalf("executive.Run with %d iterations: error %v, want %q", n, err, want)
			}
		}
		out, errOut, code := runProgram(t, bin, args...)
		if code != 2 || out != "" || errOut != want+"\n" {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2 with %q", args, code, out, errOut, want)
		}
	}
}

// TestGeneratedCrashLinesSorted: several crashes in one iteration are
// reported in processor-name order, whatever order the goroutines ran in.
func TestGeneratedCrashLinesSorted(t *testing.T) {
	src, r := generateFor(t, core.FT1, 1)
	bin := buildProgram(t, src)
	var args []string
	var want strings.Builder
	want.WriteString("iteration 0:\n")
	for _, p := range r.Schedule.Procs() {
		op := r.Schedule.ProcSlots(p)[0].Op
		args = append(args, "-kill", p+":0:"+op)
		fmt.Fprintf(&want, "  [%s] CRASH before %s\n", p, op)
	}
	for i := 0; i < 5; i++ {
		out, _, _ := runProgram(t, bin, args...)
		if !strings.HasPrefix(out, want.String()) {
			t.Fatalf("output\n%s\nwant it to start with\n%s", out, want.String())
		}
	}
}

// TestGeneratedMatchesExecutive is the differential test of the generated
// program against executive.Run: on every workload generator at a small
// size, under Basic (K=0), FT1 (K=1, bus) and FT2 (K=1, mesh), failure-free
// and for every single crash point (processor, operation, iteration 0 or 1)
// over two iterations, both deliver the same outputs with the same values
// and agree on completion (the program exits 1 when some output was lost).
func TestGeneratedMatchesExecutive(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the generated programs is slow")
	}
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"layered", func() (*graph.Graph, error) {
			return workload.LayeredDAG(rand.New(rand.NewSource(3)), workload.GraphParams{Ops: 6, Width: 3, EdgeProb: 0.5, WithIO: true})
		}},
		{"forkjoin", func() (*graph.Graph, error) { return workload.ForkJoin(2, 2) }},
		{"pipeline", func() (*graph.Graph, error) { return workload.Pipeline(3) }},
		{"fft", func() (*graph.Graph, error) { return workload.FFT(2) }},
		{"gauss", func() (*graph.Graph, error) { return workload.GaussianElimination(3) }},
		{"diamond", func() (*graph.Graph, error) { return workload.Diamond(3) }},
		{"control", func() (*graph.Graph, error) { return workload.ControlLoop(2, 1) }},
	}
	modes := []struct {
		h    core.Heuristic
		k    int
		arch func(int) (*arch.Architecture, error)
	}{
		{core.Basic, 0, workload.BusArch},
		{core.FT1, 1, workload.BusArch},
		{core.FT2, 1, workload.FullMesh},
	}
	for _, gc := range graphs {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/%v", gc.name, m.h), func(t *testing.T) {
				g, err := gc.build()
				if err != nil {
					t.Fatal(err)
				}
				a, err := m.arch(3)
				if err != nil {
					t.Fatal(err)
				}
				sp, err := workload.Costs(rand.New(rand.NewSource(5)), g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
				if err != nil {
					t.Fatal(err)
				}
				r, err := core.Schedule(m.h, g, a, sp, m.k, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				src, err := Generate(r.Schedule, g, Options{})
				if err != nil {
					t.Fatal(err)
				}
				bin := buildProgram(t, src)
				prog := executive.DemoProgram(executive.NewTables(r.Schedule, g))
				kills := [][]executive.KillSpec{nil}
				for _, p := range r.Schedule.Procs() {
					for _, sl := range r.Schedule.ProcSlots(p) {
						for it := 0; it < 2; it++ {
							kills = append(kills, []executive.KillSpec{{Proc: p, Iteration: it, Op: sl.Op}})
						}
					}
				}
				for _, ks := range kills {
					res, err := executive.Run(r.Schedule, g, prog, executive.Config{Iterations: 2, Kills: ks})
					if err != nil {
						t.Fatal(err)
					}
					args := []string{"-iterations", "2"}
					for _, k := range ks {
						args = append(args, "-kill", fmt.Sprintf("%s:%d:%s", k.Proc, k.Iteration, k.Op))
					}
					out, errOut, code := runProgram(t, bin, args...)
					want, wantCode := renderResult(res, g, ks)
					if got := servingProc.ReplaceAllString(out, ""); got != want || code != wantCode {
						t.Errorf("kills %+v: program exit status %d, output\n%s%s\nexecutive.Run: exit status %d, output\n%s",
							ks, code, got, errOut, wantCode, want)
					}
				}
			})
		}
	}
}

// renderResult prints an executive.Run result under the single-kill list
// ks the way the generated program does, without the serving processors,
// and returns the exit status the program should have.
func renderResult(res *executive.Result, g *graph.Graph, ks []executive.KillSpec) (string, int) {
	outs := g.Outputs()
	if len(outs) == 0 {
		outs = g.Sinks()
	}
	var b strings.Builder
	code := 0
	for i, it := range res.Iterations {
		fmt.Fprintf(&b, "iteration %d:\n", i)
		for _, k := range ks {
			if k.Iteration == i && slices.Contains(res.CrashedProcs, k.Proc) {
				fmt.Fprintf(&b, "  [%s] CRASH before %s\n", k.Proc, k.Op)
			}
		}
		for _, o := range outs {
			if it.Produced[o] {
				fmt.Fprintf(&b, "  output %s = %d\n", o, it.Values[o])
			} else {
				fmt.Fprintf(&b, "  output %s LOST\n", o)
			}
		}
		if !it.Completed {
			code = 1
		}
	}
	if code == 1 {
		b.WriteString("some outputs were lost\n")
	} else {
		b.WriteString("all outputs delivered\n")
	}
	return b.String(), code
}

// servingProc matches the processor the generated program names after each
// delivered output, which executive.Result does not report.
var servingProc = regexp.MustCompile(`(?m) \(from [^)\n]*\)$`)

func BenchmarkGenerate(b *testing.B) {
	in := paperex.BusInstance()
	r, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(r.Schedule, in.Graph, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
