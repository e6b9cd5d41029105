package main

// In-process tests of the CLI entry point. The black-box tests in
// main_test.go exec the built binary; these call run directly so the flag
// corners are exercised without a subprocess.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBadFlagExitsTwo(t *testing.T) {
	if got := run([]string{"-definitely-not-a-flag"}); got != 2 {
		t.Errorf("run with an unknown flag = %d, want 2", got)
	}
}

func TestRunStandaloneExitCodes(t *testing.T) {
	if got := run([]string{"-C", "testdata/badmod", "./..."}); got != 1 {
		t.Errorf("run over the bad module = %d, want 1", got)
	}
	if got := run([]string{"-C", "testdata/badmod", "./util"}); got != 0 {
		t.Errorf("run over the clean package = %d, want 0", got)
	}
	if got := run([]string{"-C", "testdata/badmod", "./does-not-exist"}); got != 2 {
		t.Errorf("run over a missing pattern = %d, want 2", got)
	}
}

func TestRunRejectsContradictoryFlags(t *testing.T) {
	if got := run([]string{"-fix", "-sarif", "-", "./..."}); got != 2 {
		t.Errorf("run(-fix -sarif -) = %d, want 2", got)
	}
	if got := run([]string{"-baseline", "a.json", "-baseline-write", "b.json", "./..."}); got != 2 {
		t.Errorf("run(-baseline -baseline-write) = %d, want 2", got)
	}
	// -fix with SARIF to a file is fine; only stdout streaming conflicts.
	if _, err := checkFlagCombos(true, "report.sarif", "", "", ""); err != nil {
		t.Errorf("checkFlagCombos(-fix -sarif report.sarif) = %v, want nil", err)
	}
}

func TestRunSarifReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	if got := run([]string{"-C", "testdata/badmod", "-sarif", path, "./..."}); got != 1 {
		t.Fatalf("run(-sarif) over the bad module = %d, want 1", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"2.1.0"`, `"ftlint"`, `"mapiter"`, `"nondet"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF report missing %s", want)
		}
	}
}

func TestRunBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if got := run([]string{"-C", "testdata/badmod", "-baseline-write", path, "./..."}); got != 0 {
		t.Fatalf("run(-baseline-write) = %d, want 0", got)
	}
	if got := run([]string{"-C", "testdata/badmod", "-baseline", path, "./..."}); got != 0 {
		t.Errorf("run(-baseline) with a fresh baseline = %d, want 0 (all findings absorbed)", got)
	}
	if got := run([]string{"-C", "testdata/badmod", "-baseline", filepath.Join(t.TempDir(), "absent.json"), "./..."}); got != 2 {
		t.Errorf("run(-baseline) with a missing file = %d, want 2", got)
	}
}
