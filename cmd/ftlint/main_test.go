package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// builtTool is the ftlint binary compiled once in TestMain.
var builtTool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ftlint-test-")
	if err != nil {
		panic(err)
	}
	builtTool = filepath.Join(dir, "ftlint")
	if out, err := exec.Command("go", "build", "-o", builtTool, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building ftlint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestStandaloneFlagsBadModule(t *testing.T) {
	cmd := exec.Command(builtTool, "-C", "testdata/badmod", "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"core/core.go",
		"[nondet] wall-clock read time.Now",
		"[mapiter] iteration over map m",
		"early return publishes",
		"[epochpurity] evaluation path from (*builder).evaluateStep reaches a mutation of epoch-guarded state: writes schedState.deliv via (*builder).bump",
		"[cancelpoll] input-dependent loop never reaches a cancellation poll",
		"[hotalloc] allocation on a hot path (reachable from the per-step entry points): fmt.Sprintf call",
		"[hotalloc] hot-path call to badmod/util.Pad, which allocates (util.go:15: fmt.Sprintf call)",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStandaloneCleanPackageExitsZero(t *testing.T) {
	cmd := exec.Command(builtTool, "-C", "testdata/badmod", "./util")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ftlint over a clean package failed: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("expected no output, got:\n%s", out)
	}
}

func TestListFlag(t *testing.T) {
	out, err := exec.Command(builtTool, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, want := range []string{
		"cancelpoll", "epochpurity", "errprop", "hotalloc",
		"infwcet", "mapiter", "nondet", "obssafe",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-list output missing analyzer %q:\n%s", want, out)
		}
	}
}

func TestAnalyzersSelection(t *testing.T) {
	cmd := exec.Command(builtTool, "-C", "testdata/badmod", "-analyzers", "cancelpoll,epochpurity", "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"[cancelpoll]", "[epochpurity]"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("selected analyzer %s missing from output:\n%s", want, out)
		}
	}
	for _, absent := range []string{"[nondet]", "[mapiter]", "[hotalloc]"} {
		if strings.Contains(string(out), absent) {
			t.Errorf("deselected analyzer %s reported:\n%s", absent, out)
		}
	}
}

func TestAnalyzersUnknownNameExitsTwo(t *testing.T) {
	cmd := exec.Command(builtTool, "-C", "testdata/badmod", "-analyzers", "nope", "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d, want 2\n%s", code, out)
	}
	if !strings.Contains(string(out), "unknown analyzer") || !strings.Contains(string(out), "cancelpoll") {
		t.Errorf("error should name the unknown analyzer and list valid ones:\n%s", out)
	}
}

// TestAnalyzersFilterKeepsForeignDirectivesFresh is the regression test for
// stale-directive detection under -analyzers: a directive belonging to a
// deselected pass must not be reported stale, because the pass that would
// have matched it never ran.
func TestAnalyzersFilterKeepsForeignDirectivesFresh(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module stalemod\n\ngo 1.22\n")
	write("core/core.go", `// Package core carries one sanctioned nondet finding.
package core

import "time"

// Stamp is sanctioned: the timestamp is for logging, not scheduling.
func Stamp() time.Time {
	return time.Now() //ftlint:allow-nondet wall time feeds a log line, never the schedule
}
`)

	// Full suite: the directive suppresses the nondet finding; exit 0.
	cmd := exec.Command(builtTool, "-C", dir, "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("full-suite exit code %d, want 0\n%s", code, out)
	}

	// nondet deselected: its directive must not be reported stale.
	cmd = exec.Command(builtTool, "-C", dir, "-analyzers", "mapiter", "./...")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("filtered exit code %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "stale") {
		t.Errorf("directive for deselected pass reported stale:\n%s", out)
	}

	// Control: with nondet selected and the finding gone, the directive IS
	// stale — prove the detector still fires when its pass runs.
	write("core/core.go", `// Package core no longer needs its directive.
package core

// Stamp is a fixed epoch now.
func Stamp() int64 {
	return 0 //ftlint:allow-nondet wall time feeds a log line, never the schedule
}
`)
	cmd = exec.Command(builtTool, "-C", dir, "-analyzers", "nondet", "./...")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("stale-control exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "stale") {
		t.Errorf("expected a stale-directive report with nondet selected:\n%s", out)
	}
}

func TestUnknownPatternExitsTwo(t *testing.T) {
	cmd := exec.Command(builtTool, "-C", "testdata/badmod", "./does-not-exist")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d, want 2\n%s", code, out)
	}
}

// writeModule writes a throwaway module named mod with the given files
// (path relative to the module root → source) and returns its root.
func writeModule(t *testing.T, mod string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + mod + "\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStandaloneParseFailure and TestStandaloneTypecheckFailure check that a
// package the go command cannot build is an operational error: exit 2 with
// the compiler's message, never a panic.
func TestStandaloneParseFailure(t *testing.T) {
	dir := writeModule(t, "brokenmod", map[string]string{"p/broken.go": "package p\nfunc {\n"})
	checkBuildFailure(t, dir, "broken.go:2")
}

func TestStandaloneTypecheckFailure(t *testing.T) {
	dir := writeModule(t, "illtyped", map[string]string{"p/bad.go": "package p\n\nvar x undefinedType\n"})
	checkBuildFailure(t, dir, "undefined: undefinedType")
}

func checkBuildFailure(t *testing.T, dir, want string) {
	t.Helper()
	cmd := exec.Command(builtTool, "-C", dir, "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d, want 2\n%s", code, out)
	}
	if !strings.HasPrefix(string(out), "ftlint: ") || !strings.Contains(string(out), want) {
		t.Errorf("output should be an ftlint error naming %q:\n%s", want, out)
	}
	if strings.Contains(string(out), "panic") || strings.Contains(string(out), "goroutine ") {
		t.Errorf("build failure crashed the tool:\n%s", out)
	}
}

// fixableModule writes a throwaway module whose finding carries a suggested
// fix: an unsorted key accumulator (mapiter sort fix).
func fixableModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, "fixmod", map[string]string{"core/core.go": `// Package core carries a fixable finding only.
package core

import "sort"

// Keys accumulates map keys without sorting before publication.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

var _ = sort.Strings
`})
}

func TestFixRoundTrip(t *testing.T) {
	dir := fixableModule(t)

	// First pass: findings exist and the fixes land.
	cmd := exec.Command(builtTool, "-C", dir, "-fix", "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("ftlint -fix exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "applied 1 fix(es)") {
		t.Fatalf("expected one applied fix:\n%s", out)
	}

	// The rewritten file is gofmt-clean.
	gofmt := exec.Command("gofmt", "-l", dir)
	fmtOut, err := gofmt.CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l: %v\n%s", err, fmtOut)
	}
	if strings.TrimSpace(string(fmtOut)) != "" {
		t.Errorf("fixed tree is not gofmt-clean:\n%s", fmtOut)
	}

	fixed, err := os.ReadFile(filepath.Join(dir, "core", "core.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "sort.Strings(keys)") {
		t.Errorf("fixed source missing the inserted sort:\n%s", fixed)
	}

	// Second pass: the fixed tree re-lints to zero.
	cmd = exec.Command(builtTool, "-C", dir, "./...")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("re-lint exit code %d, want 0\n%s", code, out)
	}

	// Third pass with -fix again: idempotent, nothing left to rewrite.
	before := string(fixed)
	cmd = exec.Command(builtTool, "-C", dir, "-fix", "./...")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("idempotent -fix exit code %d, want 0\n%s", code, out)
	}
	after, err := os.ReadFile(filepath.Join(dir, "core", "core.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != before {
		t.Errorf("second -fix run changed the file:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
