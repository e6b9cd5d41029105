package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// canonicalEnvelope is the reference spelling of the canonical form:
// canonicalHash must hash exactly the bytes json.Marshal gives for it.
type canonicalEnvelope struct {
	V         int             `json:"v"`
	Kind      string          `json:"kind"`
	Heuristic string          `json:"heuristic"`
	K         int             `json:"k"`
	Seeds     int             `json:"seeds"`
	Degraded  bool            `json:"degraded"`
	NoBcast   bool            `json:"nobcast"`
	NoPress   bool            `json:"nopress"`
	Deadline  float64         `json:"deadline"`
	Graph     json.RawMessage `json:"graph"`
	Arch      json.RawMessage `json:"arch"`
	Spec      json.RawMessage `json:"spec"`
	Extra     json.RawMessage `json:"extra,omitempty"`
}

// referenceHash is canonicalHash through encoding/json: the envelope and
// its extra tail marshalled by reflection, then hashed in one piece.
func referenceHash(kind string, r *ScheduleRequest, p *problem, extra canonicalExtra) (string, error) {
	env := canonicalEnvelope{
		V:         1,
		Kind:      kind,
		Heuristic: r.Heuristic,
		K:         r.K,
		Seeds:     r.Seeds,
		Degraded:  r.AllowDegraded,
		NoBcast:   r.NoBroadcast,
		NoPress:   r.NoPressure,
		Deadline:  r.Deadline,
		Graph:     p.graphJSON,
		Arch:      p.archJSON,
		Spec:      p.specJSON,
	}
	if extra != nil {
		var err error
		if env.Extra, err = json.Marshal(extra); err != nil {
			return "", err
		}
	}
	data, err := json.Marshal(env)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// busRequestJSON renders the paper's bus example as a schedule request body,
// with the graph/arch/spec documents embedded verbatim.
func busRequestJSON(t testing.TB, mutate func(m map[string]any)) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	g, err := inst.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a, err := inst.Arch.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := inst.Spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{
		"graph":     json.RawMessage(g),
		"arch":      json.RawMessage(a),
		"spec":      json.RawMessage(sp),
		"heuristic": "ft1",
		"k":         1,
	}
	if mutate != nil {
		mutate(m)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// busRequestReordered renders the same request as busRequestJSON(t, nil)
// with the top-level keys in a different order and extra whitespace, leaving
// the nested documents byte-identical (the spec encodes infinities as 1e999,
// which no float64 roundtrip may touch).
func busRequestReordered(t testing.TB) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	g, err := inst.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a, err := inst.Arch.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := inst.Spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("{\n  \"k\": 1,\n  \"heuristic\": \"ft1\",\n  \"spec\": %s,\n  \"arch\": %s,\n  \"graph\": %s\n}\n", sp, a, g))
}

// hashOf decodes a request body and returns its canonical schedule hash.
func hashOf(t *testing.T, body []byte) string {
	t.Helper()
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	p, err := req.decodeProblem()
	if err != nil {
		t.Fatalf("decodeProblem: %v", err)
	}
	return canonicalHash("schedule", &req, p, nil)
}

// TestHashInsensitiveToEncoding: JSON key order, whitespace, and number
// spelling must not change the canonical hash.
func TestHashInsensitiveToEncoding(t *testing.T) {
	base := busRequestJSON(t, nil)
	want := hashOf(t, base)

	// Whitespace: re-indent the whole document.
	var pretty json.RawMessage = base
	indented, err := json.MarshalIndent(pretty, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(t, indented); got != want {
		t.Errorf("whitespace changed the hash: %s != %s", got, want)
	}

	// Key order: same request, different top-level key order.
	reordered := busRequestReordered(t)
	if string(reordered) == string(base) {
		t.Fatal("test vacuous: reordering produced identical bytes")
	}
	if got := hashOf(t, reordered); got != want {
		t.Errorf("key reordering changed the hash: %s != %s", got, want)
	}

	// Defaulted-vs-explicit zero options.
	explicit := busRequestJSON(t, func(m map[string]any) {
		m["seeds"] = 0
		m["allow_degraded"] = false
		m["deadline"] = 0.0
	})
	if got := hashOf(t, explicit); got != want {
		t.Errorf("explicit zero options changed the hash: %s != %s", got, want)
	}
}

// TestHashIgnoresResourceKnobs: workers and timeout_ms trade latency for
// resources without changing results, so they share one cache entry.
func TestHashIgnoresResourceKnobs(t *testing.T) {
	want := hashOf(t, busRequestJSON(t, nil))
	knobs := busRequestJSON(t, func(m map[string]any) {
		m["workers"] = 8
		m["timeout_ms"] = 1234
	})
	if got := hashOf(t, knobs); got != want {
		t.Errorf("resource knobs changed the hash: %s != %s", got, want)
	}
}

// TestHashSensitiveToSemantics: every semantic field change must change the
// hash — including operation declaration order, which the schedulers'
// deterministic tie-breaking is sensitive to.
func TestHashSensitiveToSemantics(t *testing.T) {
	base := hashOf(t, busRequestJSON(t, nil))
	mutations := map[string]func(m map[string]any){
		"heuristic": func(m map[string]any) { m["heuristic"] = "ft2" },
		"k":         func(m map[string]any) { m["k"] = 2 },
		"seeds":     func(m map[string]any) { m["seeds"] = 3 },
		"degraded":  func(m map[string]any) { m["allow_degraded"] = true },
		"nobcast":   func(m map[string]any) { m["no_broadcast"] = true },
		"nopress":   func(m map[string]any) { m["no_pressure"] = true },
		"deadline":  func(m map[string]any) { m["deadline"] = 99.5 },
	}
	for name, mutate := range mutations {
		got := hashOf(t, busRequestJSON(t, mutate))
		if got == base {
			t.Errorf("%s: semantic change did not change the hash", name)
		}
	}

	// Operation declaration order is semantic: swap two op declarations in
	// the graph document and the hash must move.
	swapped := busRequestJSON(t, func(m map[string]any) {
		raw := string(m["graph"].(json.RawMessage))
		// The paper graph declares ops I, A, B, ... — swapping the A and B
		// declarations preserves the op set but changes tie-break order.
		if !strings.Contains(raw, `"A"`) || !strings.Contains(raw, `"B"`) {
			t.Fatal("graph document lacks expected ops A and B")
		}
		raw = strings.NewReplacer(`"A"`, `"__tmp__"`, `"B"`, `"A"`).Replace(raw)
		raw = strings.ReplaceAll(raw, `"__tmp__"`, `"B"`)
		m["graph"] = json.RawMessage(raw)
	})
	if got := hashOf(t, swapped); got == base {
		t.Error("renaming/swapping ops did not change the hash")
	}
}

// TestHashKindsDisjoint: the same problem hashed for schedule, certify, and
// simulate must occupy distinct cache keys.
func TestHashKindsDisjoint(t *testing.T) {
	body := busRequestJSON(t, nil)
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	p, err := req.decodeProblem()
	if err != nil {
		t.Fatal(err)
	}
	sched := canonicalHash("schedule", &req, p, nil)
	cert := canonicalHash("certify", &req, p, certifyExtra{CertifyK: 1})
	simu := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{}})
	if sched == cert || sched == simu || cert == simu {
		t.Errorf("kind hashes collide: schedule=%s certify=%s simulate=%s", sched, cert, simu)
	}

	// certify_k participates in the certify hash.
	cert2 := canonicalHash("certify", &req, p, certifyExtra{CertifyK: 2})
	if cert2 == cert {
		t.Error("certify_k change did not change the certify hash")
	}

	// An absent scenario and an explicit empty one are the same request.
	simuNil := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{}})
	if simuNil != simu {
		t.Error("empty scenario is not canonical")
	}
	// A non-empty scenario is a different request.
	simu2 := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{{Proc: "P1"}}})
	if simu2 == simu {
		t.Error("scenario change did not change the simulate hash")
	}
}

// hashProblems are the canonical documents of the paper's bus example, of
// every internal/workload graph generator on a bus, a ring and a mesh, of
// two random instances, and of a problem whose names need escaping.
func hashProblems(tb testing.TB) []*problem {
	tb.Helper()
	canonical := func(g *graph.Graph, a *arch.Architecture, sp *spec.Spec) *problem {
		p := new(problem)
		var err error
		if p.graphJSON, err = g.MarshalJSON(); err != nil {
			tb.Fatal(err)
		}
		if p.archJSON, err = a.MarshalJSON(); err != nil {
			tb.Fatal(err)
		}
		if p.specJSON, err = sp.MarshalJSON(); err != nil {
			tb.Fatal(err)
		}
		return p
	}
	bus := paperex.BusInstance()
	probs := []*problem{canonical(bus.Graph, bus.Arch, bus.Spec)}

	r := rand.New(rand.NewSource(5))
	layered, err := workload.LayeredDAG(r, workload.GraphParams{Ops: 30, Width: 6, EdgeProb: 0.4, WithIO: true})
	if err != nil {
		tb.Fatal(err)
	}
	graphs := []*graph.Graph{layered}
	for _, gen := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return workload.ForkJoin(4, 3) },
		func() (*graph.Graph, error) { return workload.Pipeline(6) },
		func() (*graph.Graph, error) { return workload.FFT(8) },
		func() (*graph.Graph, error) { return workload.GaussianElimination(5) },
		func() (*graph.Graph, error) { return workload.Diamond(4) },
		func() (*graph.Graph, error) { return workload.ControlLoop(3, 2) },
	} {
		g, err := gen()
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		for _, mk := range []func(int) (*arch.Architecture, error){workload.BusArch, workload.Ring, workload.FullMesh} {
			a, err := mk(4)
			if err != nil {
				tb.Fatal(err)
			}
			sp, err := workload.Costs(r, g, a, workload.CostParams{MeanExec: 2, Spread: 0.5, CCR: 1})
			if err != nil {
				tb.Fatal(err)
			}
			if err := workload.RestrictExtIOs(sp, g, a, 2); err != nil {
				tb.Fatal(err)
			}
			probs = append(probs, canonical(g, a, sp))
		}
	}
	for _, isBus := range []bool{true, false} {
		inst, err := workload.RandomInstance(r, 40, 4, isBus, 1.0)
		if err != nil {
			tb.Fatal(err)
		}
		probs = append(probs, canonical(inst.Graph, inst.Arch, inst.Spec))
	}

	// Names with HTML characters, U+2028 and an invalid UTF-8 byte: the
	// documents carry them escaped, and json.Marshal must leave them be.
	g := graph.New("g<&>")
	a := arch.New("a\u2028")
	sp := spec.New()
	for _, err := range []error{
		g.AddExtIO("in<"), g.AddComp("x&\u2029"), g.AddExtIO("out\xff>"),
		g.Connect("in<", "x&\u2029"), g.Connect("x&\u2029", "out\xff>"),
		a.AddProcessor("P<1>"), a.AddProcessor("P&2"), a.AddBus("b\"us", "P<1>", "P&2"),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, op := range g.OpNames() {
		for _, proc := range a.ProcessorNames() {
			if err := sp.SetExec(op, proc, 1.5); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, e := range g.Edges() {
		if err := sp.SetCommUniform(a, e.Key(), 0.25); err != nil {
			tb.Fatal(err)
		}
	}
	return append(probs, canonical(g, a, sp))
}

// FuzzCanonicalHash compares canonicalHash with the reflective reference
// on every hashProblems document, for each kind, over arbitrary request
// options and simulate scenarios. Floats are finite, as in every decoded
// request.
func FuzzCanonicalHash(f *testing.F) {
	probs := hashProblems(f)
	for i := range probs {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(uint8(i), kind, "ft1", 1, 0, false, false, false, 0.0,
				1, uint8(0), "P1", 0, 0.0, 0, 0.0, 0, 0.0, false)
		}
	}
	f.Add(uint8(0), uint8(2), "ft2<&>\u2028", 2, 3, true, true, true, 1e-7,
		-1, uint8(2), "P<2>&\u2028\xff", 1, 1.5, 3, 1e21, 4, -2.5, true)
	f.Add(uint8(1), uint8(2), "basic", 0, 1, true, false, true, 1e21,
		0, uint8(1), "P2", -1, math.Copysign(0, -1), 0, 1e-7, 2, 0.0, false)
	f.Add(uint8(2), uint8(1), "", 1, 0, false, false, false, -3.75,
		2, uint8(1), "", 0, 0.0, 0, 0.0, 1, 1e300, true)
	f.Add(uint8(3), uint8(2), "ft1", 1, 0, false, false, false, math.Copysign(0, -1),
		0, uint8(3), "P1", 0, 0.0, 0, 0.0, 0, -1e-9, false)
	kinds := [...]string{"schedule", "certify", "simulate"}
	f.Fuzz(func(t *testing.T, pi, kind uint8, heuristic string, k, seeds int,
		degraded, nobcast, nopress bool, deadline float64, certK int,
		nFail uint8, proc string, iter int, at float64, recIter int, recAt float64,
		iterations int, simDeadline float64, trace bool) {
		for _, x := range []float64{deadline, at, recAt, simDeadline} {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				t.Skip("JSON has no spelling for a non-finite float")
			}
		}
		p := probs[int(pi)%len(probs)]
		req := &ScheduleRequest{
			Heuristic: heuristic, K: k, Seeds: seeds,
			AllowDegraded: degraded, NoBroadcast: nobcast, NoPressure: nopress,
			Deadline: deadline,
		}
		kindName := kinds[int(kind)%len(kinds)]
		var extra canonicalExtra
		switch kindName {
		case "certify":
			extra = certifyExtra{CertifyK: certK}
		case "simulate":
			var scenario []FailureSpec // absent when nFail%4 == 3
			if n := int(nFail % 4); n < 3 {
				scenario = []FailureSpec{}
				for i := 0; i < n; i++ {
					scenario = append(scenario, FailureSpec{
						Proc: proc, Iteration: iter + i, At: at,
						RecoverIteration: recIter, RecoverAt: recAt,
					})
				}
			}
			extra = simulateExtra{Scenario: scenario, Iterations: iterations, SimDeadline: simDeadline, Trace: trace}
		}
		want, err := referenceHash(kindName, req, p, extra)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalHash(kindName, req, p, extra); got != want {
			t.Fatalf("hash %s, reference %s", got, want)
		}
	})
}

// canonicalHashAllocs pins canonicalHash's allocations whatever the
// problem's size: the scalar buffer (the tail's interface call moves it to
// the heap) and the hex string; the compiler devirtualizes the digest's
// calls and keeps it on the stack. Measured with Go 1.24 on linux/amd64;
// marshalling the reflective envelope made 4 or 5, one of them a copy of
// all three documents.
const canonicalHashAllocs = 2

// TestCanonicalHashAllocs pins canonicalHash's allocation count on a small
// and on a large problem, for each kind: streaming the documents into the
// digest makes the count independent of the problem.
func TestCanonicalHashAllocs(t *testing.T) {
	probs := hashProblems(t)
	req := &ScheduleRequest{Heuristic: "ft1", K: 1}
	var certify canonicalExtra = certifyExtra{CertifyK: 1}
	var simulate canonicalExtra = simulateExtra{Scenario: []FailureSpec{{Proc: "P2", At: 1.5}}, Iterations: 2}
	for _, p := range []*problem{probs[0], probs[len(probs)-2]} {
		for _, tc := range []struct {
			kind  string
			extra canonicalExtra
		}{{"schedule", nil}, {"certify", certify}, {"simulate", simulate}} {
			allocs := testing.AllocsPerRun(50, func() { canonicalHash(tc.kind, req, p, tc.extra) })
			size := len(p.graphJSON) + len(p.archJSON) + len(p.specJSON)
			t.Logf("%s over %d document bytes: %.0f allocs", tc.kind, size, allocs)
			if allocs > canonicalHashAllocs {
				t.Errorf("%s over %d document bytes: %.0f allocations, pinned at %d", tc.kind, size, allocs, canonicalHashAllocs)
			}
		}
	}
}
