package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var build, sched bool
	for _, e := range doc.TraceEvents {
		switch e.Pid {
		case 1:
			build = true
		case 2:
			sched = true
		}
	}
	if !build || !sched {
		t.Errorf("trace should carry both build spans (pid 1) and the schedule Gantt (pid 2): build=%v sched=%v", build, sched)
	}
	// The normal report still goes to stdout.
	if !strings.Contains(out.String(), "makespan: 9.4") {
		t.Errorf("summary missing from output:\n%s", out.String())
	}
}

func TestStatsFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-k", "1", "-certify", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"counters:", "core.steps", "certify.patterns.checked", "timers:", "evaluate"} {
		if !strings.Contains(s, frag) {
			t.Errorf("stats output missing %q:\n%s", frag, s)
		}
	}
	// Stats print after the human-readable report, not instead of it.
	if !strings.Contains(s, "makespan: 9.4") {
		t.Errorf("summary missing from output:\n%s", s)
	}
}

func TestStatsWithoutCertifySkipsCertifyCounters(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "certify.") {
		t.Errorf("no -certify: certify counters should be absent:\n%s", out.String())
	}
}

func TestFlagComboErrors(t *testing.T) {
	cases := []struct {
		args []string
		frag string // expected fragment of the usage error
	}{
		{[]string{"-bench", "small"}, "flag provided but not defined: -bench"},
		{[]string{"-certify-workers", "4"}, "requires -certify"},
		{[]string{"-demo", "-certify-workers", "4"}, "requires -certify"},
		{[]string{"-demo", "-graph", "g.json"}, "contradicts -demo"},
		{[]string{"-demo", "-stats", "-format", "json"}, "corrupt"},
		{[]string{"-demo", "-stats", "-format", "svg"}, "corrupt"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%v: expected a usage error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%v: error %q does not mention %q", c.args, err, c.frag)
		}
	}
}

// TestFlagCombosAllowValid guards against over-eager rejection: explicit
// defaults and meaningful combinations must keep working.
func TestFlagCombosAllowValid(t *testing.T) {
	cases := [][]string{
		{"-demo", "-heuristic", "ft1", "-stats", "-format", "table"},
		{"-demo", "-heuristic", "ft1", "-k", "1", "-certify", "-stats"},
		{"-demo", "-heuristic", "ft1", "-k", "1", "-certify", "-certify-workers", "3"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Errorf("%v: unexpected error: %v", args, err)
		}
	}
}

// TestTraceWithJSONFormat checks -trace composes with machine-readable
// formats: the trace goes to its file, the schedule JSON stays clean.
func TestTraceWithJSONFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-demo", "-heuristic", "ft1", "-format", "json", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(out.String()), &v); err != nil {
		t.Fatalf("-trace corrupted the JSON stream: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
}
