package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Tiny sizes: every workload runs in well under a second.
var (
	tinyDesign = designConfig{procs: 3, pool: 2, perSlot: 2, slots: []designSlot{
		{bus: true, ops: 8, k: 1}, {bus: false, ops: 8, k: 1}, {bus: true, ops: 8, k: 2},
	}}
	tinyCampaign = campaignConfig{models: []campaignModel{{bus: true, ops: 8, procs: 3}, {bus: false, ops: 8, procs: 3}},
		pool: 2, perModel: 2, seeds: 2, n: 300, maxFaults: 2}
	tinyServe = serveConfig{pool: 64, procs: 3, minOps: 6, maxOps: 10, rate: 200, repeat: 0.8, zipf: 1.2}
)

// tinyGolden records the digests of the tiny pools.
func tinyGolden(t *testing.T) golden {
	t.Helper()
	g := golden{}
	if err := recordDesign(tinyDesign, g); err != nil {
		t.Fatal(err)
	}
	if err := recordCampaign(tinyCampaign, g); err != nil {
		t.Fatal(err)
	}
	if err := recordServe(tinyServe, g); err != nil {
		t.Fatal(err)
	}
	return g
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestTinyRuns runs every workload untraced and traced at tiny sizes and
// checks that the result line carries exactly the metrics BENCHMARK.json
// lists, with their units, and that every output was checked and passed.
func TestTinyRuns(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	g := tinyGolden(t)
	chdir(t, t.TempDir())
	runners := map[string]func(runOpts) (*outcome, error){
		"design":   func(o runOpts) (*outcome, error) { return runDesign(tinyDesign, o, g) },
		"campaign": func(o runOpts) (*outcome, error) { return runCampaign(tinyCampaign, o, g) },
		"serve":    func(o runOpts) (*outcome, error) { return runServe(tinyServe, o, g) },
	}
	for _, name := range []string{"design", "campaign", "serve"} {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 0.3, trace: trace}
			out, err := runners[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, name, o, out); err != nil {
				t.Fatal(err)
			}
			var last string
			for sc := bufio.NewScanner(&buf); sc.Scan(); {
				last = sc.Text()
			}
			var res resultLine
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", name, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, errors %v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.v.errors())
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, m, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, m, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, got.Value)
				}
			}
			if _, err := os.Stat(".bench_build/traces/" + name + "-seed7.json"); trace && err != nil {
				t.Errorf("%s: trace file: %v", name, err)
			}
		}
	}
}

// chdir moves the test into dir until it ends, so trace files land there.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestNegativeControl checks that a corrupted output counts as a failure
// and that the run-time control detects the corruption.
func TestNegativeControl(t *testing.T) {
	doc, report := []byte(`{"schedule": 1}`), []byte("CERTIFIED")
	v := newVerifier(golden{"k": digest(doc, report)})
	v.check("k", nil, doc, report)
	if v.failed.Load() != 0 {
		t.Fatalf("good output failed: %v", v.errors())
	}
	if v.correct() {
		t.Fatal("run counted correct before its negative control ran")
	}
	v.negativeControl("k", doc, report)
	if !v.correct() {
		t.Fatal("negative control did not detect the corrupted output")
	}
	bad := append([]byte(nil), doc...)
	bad[0] = '['
	v.check("k", nil, bad, report)
	v.check("unknown", nil, doc, report)
	if got := v.failed.Load(); got != 2 || v.correct() {
		t.Fatalf("failed = %d, correct = %v; want 2 failures and an incorrect run", got, v.correct())
	}
}

// TestServeCapacity measures the closed-loop capacity of the serve
// workload: every request is due at once, so the nproc connections work
// back to back. defaultServe.rate is frozen at about half of it. Run with
// PERFBENCH_CAPACITY=1.
func TestServeCapacity(t *testing.T) {
	if os.Getenv("PERFBENCH_CAPACITY") == "" {
		t.Skip("set PERFBENCH_CAPACITY=1 to measure")
	}
	c := defaultServe
	c.rate = math.Inf(1)
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := g.pool("serve/")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := c.requests(1, 8750, pool)
	if err != nil {
		t.Fatal(err)
	}
	load, err := fire(reqs, newVerifier(golden{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("closed-loop capacity %.1f requests/s over %d requests (p50 %.2f ms)",
		float64(len(reqs))/load.elapsed, len(reqs), percentile(load.lat, 0.5))
}
