package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// cliBytesFor renders what the ftsched CLI prints with -format json for the
// same problem: the byte-identity oracle.
func cliBytesFor(t *testing.T, heuristic core.Heuristic, k int) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	res, err := core.ScheduleTuned(heuristic, inst.Graph, inst.Arch, inst.Spec, k, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := res.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestScheduleCLIByteIdentity: ?format=cli returns exactly the bytes the
// ftsched CLI prints, and a cache hit replays them unchanged.
func TestScheduleCLIByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	want := cliBytesFor(t, core.FT1, 1)

	resp, got := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Ftsched-Cache") != "miss" {
		t.Errorf("first request cache state = %q, want miss", resp.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from CLI bytes:\n got: %s\nwant: %s", got, want)
	}

	// Hit path: identical bytes, hit header.
	resp2, got2 := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("second request cache state = %q, want hit", resp2.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got2, got) {
		t.Error("cache hit returned different bytes than the miss")
	}

	// Re-encoded request (different JSON spelling, same semantics): same
	// cache entry, same bytes.
	resp3, got3 := post(t, ts.URL+"/v1/schedule?format=cli", busRequestReordered(t))
	if resp3.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("re-encoded request cache state = %q, want hit", resp3.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got3, got) {
		t.Error("re-encoded request returned different bytes")
	}
}

// TestScheduleEnvelope: the default envelope carries the hash and the
// schedule document, and is itself byte-deterministic across hit and miss.
func TestScheduleEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	resp, miss := post(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, miss)
	}
	var env struct {
		Hash     string          `json:"hash"`
		Makespan float64         `json:"makespan"`
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(miss, &env); err != nil {
		t.Fatalf("envelope does not parse: %v", err)
	}
	if env.Hash != hashOf(t, body) {
		t.Errorf("envelope hash %q != canonical hash", env.Hash)
	}
	if env.Makespan <= 0 || len(env.Schedule) == 0 {
		t.Errorf("implausible envelope: makespan=%v schedule=%d bytes", env.Makespan, len(env.Schedule))
	}
	_, hit := post(t, ts.URL+"/v1/schedule", body)
	if !bytes.Equal(miss, hit) {
		t.Error("envelope bytes differ between miss and hit")
	}
}

// TestConcurrentIdenticalRequests: N concurrent identical requests produce
// identical bytes, and the engine-run counter shows the cache plus
// single-flight collapsed the work (run under -race in CI).
func TestConcurrentIdenticalRequests(t *testing.T) {
	const clients = 12
	s, ts := newTestServer(t, Config{Workers: 4})
	body := busRequestJSON(t, nil)

	// Warm once so the concurrent wave is deterministic: all hits.
	if resp, out := post(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", resp.StatusCode, out)
	}
	runsAfterWarm := s.ins.runSched.Value()
	if runsAfterWarm != 1 {
		t.Fatalf("warm-up ran the engine %d times, want 1", runsAfterWarm)
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := post(t, ts.URL+"/v1/schedule", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	if got := s.ins.runSched.Value(); got != 1 {
		t.Errorf("engine ran %d times for %d identical requests, want 1", got, clients+1)
	}
}

// TestCertifyReusesScheduleCache: certify goes through the schedule cache,
// so scheduling runs once even when certify comes second.
func TestCertifyReusesScheduleCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	if resp, out := post(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	resp, out := post(t, ts.URL+"/v1/certify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d %s", resp.StatusCode, out)
	}
	var env struct {
		Hash    string `json:"hash"`
		Verdict struct {
			Tolerated int  `json:"Tolerated"`
			Certified bool `json:"Certified"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("certify envelope does not parse: %v", err)
	}
	if !env.Verdict.Certified {
		t.Errorf("paper example FT1/k=1 schedule should certify: %s", out)
	}
	if got := s.ins.runSched.Value(); got != 1 {
		t.Errorf("schedule engine ran %d times, want 1 (certify should reuse the cache)", got)
	}
	if got := s.ins.runCertify.Value(); got != 1 {
		t.Errorf("certify engine ran %d times, want 1", got)
	}
	// Identical certify request: cached outright.
	resp2, out2 := post(t, ts.URL+"/v1/certify", body)
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("second certify cache state = %q, want hit", resp2.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(out2, out) {
		t.Error("certify hit returned different bytes")
	}
}

// TestSimulateEndpoint: simulate with a failure scenario returns a parsed
// result and deadline-met iterations.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, func(m map[string]any) {
		m["scenario"] = []map[string]any{{"proc": "P1"}}
	})
	resp, out := post(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, out)
	}
	var env struct {
		Hash   string          `json:"hash"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out, &env); err != nil || len(env.Result) == 0 {
		t.Fatalf("simulate envelope does not parse: %v", err)
	}
	// Absent scenario and explicit empty scenario share one cache entry.
	noScenario := busRequestJSON(t, nil)
	emptyScenario := busRequestJSON(t, func(m map[string]any) {
		m["scenario"] = []any{}
	})
	_, _ = post(t, ts.URL+"/v1/simulate", noScenario)
	resp2, _ := post(t, ts.URL+"/v1/simulate", emptyScenario)
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("empty-vs-absent scenario missed the cache: %q", resp2.Header.Get("X-Ftsched-Cache"))
	}
}

// TestBatchOrderAndPartialFailure: batch responses come back in request
// order with per-element statuses.
func TestBatchOrderAndPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := busRequestJSON(t, nil)
	bad := busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "nope" })
	breq, err := json.Marshal(BatchRequest{Requests: []json.RawMessage{good, bad, good}})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/v1/schedule/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(out, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(bresp.Responses))
	}
	wantStatus := []int{200, 400, 200}
	for i, item := range bresp.Responses {
		if item.Status != wantStatus[i] {
			t.Errorf("response %d status = %d, want %d", i, item.Status, wantStatus[i])
		}
	}
	if !bytes.Equal(bresp.Responses[0].Body, bresp.Responses[2].Body) {
		t.Error("identical batch elements returned different bodies")
	}
}

// TestErrorStatuses drives the failure paths.
func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	// The spec still names P3, which this architecture lacks: the engines
	// reject the problem as malformed.
	twoProcs := func(m map[string]any) {
		m["arch"] = json.RawMessage(`{"name":"bus2","processors":["P1","P2"],"links":[{"name":"bus","kind":"bus","endpoints":["P1","P2"]}]}`)
	}
	trailing := func(body []byte, tail string) []byte { return append(body[:len(body):len(body)], tail...) }
	batchOf := func(body []byte) []byte {
		data, err := json.Marshal(BatchRequest{Requests: []json.RawMessage{body}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		url  string
		body []byte
		want int
		text string // a substring of the error, when pinned
	}{
		{"bad heuristic", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "nope" }), 400, ""},
		{"unknown field", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["typo_field"] = 1 }), 400, ""},
		{"negative k", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["k"] = -1 }), 400, ""},
		{"not json", "/v1/schedule", []byte("not json"), 400, ""},
		{"missing deadline", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["deadline"] = 0.001 }), 422, ""},
		{"cli on certify", "/v1/certify?format=cli", busRequestJSON(t, nil), 400, ""},
		{"full on certify", "/v1/certify", busRequestJSON(t, func(m map[string]any) { m["full"] = true }), 400, ""},
		{"unknown format", "/v1/schedule?format=yaml", busRequestJSON(t, nil), 400, ""},
		{"empty batch", "/v1/schedule/batch", []byte(`{"requests":[]}`), 400, ""},
		{"spec off the arch", "/v1/schedule", busRequestJSON(t, twoProcs), 400, ""},
		{"spec off the arch, certify", "/v1/certify", busRequestJSON(t, twoProcs), 400, ""},
		{"empty spec", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["spec"] = json.RawMessage(`{}`) }), 400, ""},
		{"unknown failed processor", "/v1/simulate", busRequestJSON(t, func(m map[string]any) {
			m["scenario"] = []map[string]any{{"proc": "P9"}}
		}), 400, ""},
		// Trailing data of any kind, a closing bracket included, follows the
		// document rather than ending it.
		{"trailing brace", "/v1/schedule", trailing(busRequestJSON(t, nil), "}"), 400, "schedule: trailing data after JSON document"},
		{"trailing bracket", "/v1/schedule", trailing(busRequestJSON(t, nil), " ]"), 400, "schedule: trailing data after JSON document"},
		{"trailing letter", "/v1/schedule", trailing(busRequestJSON(t, nil), "x"), 400, "schedule: trailing data after JSON document"},
		{"trailing brace, certify", "/v1/certify", trailing(busRequestJSON(t, nil), "\n}\n"), 400, "certify: trailing data after JSON document"},
		{"trailing bracket, simulate", "/v1/simulate", trailing(busRequestJSON(t, nil), "]"), 400, "simulate: trailing data after JSON document"},
		{"trailing brace, batch", "/v1/schedule/batch", trailing(batchOf(busRequestJSON(t, nil)), "}"), 400, "batch: trailing data after JSON document"},
		{"trailing bracket, batch", "/v1/certify/batch", trailing(batchOf(busRequestJSON(t, nil)), "]"), 400, "batch: trailing data after JSON document"},
	}
	for _, tc := range cases {
		resp, out := post(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body does not parse: %s", tc.name, out)
		}
		if !strings.Contains(e.Error, tc.text) {
			t.Errorf("%s: error %q lacks %q", tc.name, e.Error, tc.text)
		}
	}
	// Trailing whitespace is not data.
	if resp, out := post(t, ts.URL+"/v1/schedule", trailing(busRequestJSON(t, nil), " \r\n\t")); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d (%s)", resp.StatusCode, out)
	}

	// Method check.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule = %d, want 405", resp.StatusCode)
	}
}

// TestCanceledRequestIs504: a request whose context is already dead maps to
// 504 without caching anything.
func TestCanceledRequestIs504(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, herr := s.answer(ctx, "schedule", s.prepareSchedule, busRequestJSON(t, nil))
	if herr == nil || herr.status != http.StatusGatewayTimeout {
		t.Fatalf("herr = %v, want 504", herr)
	}
	if s.cache.Len() != 0 || aliasCount(s) != 0 {
		t.Error("canceled request left a cache entry or alias")
	}
}

// TestHealthzAndDrain: the health endpoint flips to 503 on drain.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestMetricsEndpoint: /metrics re-exports the serve counters in Prometheus
// text format, including the raw-index share of the cache hits.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	metrics := func(want ...string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, w := range want {
			if !strings.Contains(text, w+"\n") {
				t.Errorf("metrics output lacks %q:\n%s", w, text)
			}
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("metrics content type = %q", ct)
		}
	}
	body := busRequestJSON(t, nil)
	if resp, out := post(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	metrics(
		"# TYPE ftsched_serve_requests counter",
		"ftsched_serve_requests 1",
		"ftsched_serve_engine_schedule 1",
		"ftsched_serve_cache_misses 1",
		"ftsched_serve_cache_hits_raw 0",
	)
	post(t, ts.URL+"/v1/schedule", body)
	post(t, ts.URL+"/v1/schedule", busRequestReordered(t))
	metrics(
		"ftsched_serve_requests 3",
		"ftsched_serve_engine_schedule 1",
		"ftsched_serve_cache_hits 2",
		"ftsched_serve_cache_hits_raw 1",
	)
}

// TestBodyTooLarge: oversized bodies are rejected with 413.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	resp, _ := post(t, ts.URL+"/v1/schedule", bytes.Repeat([]byte("x"), 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestBodyBoundaries drives readBody over the wire at its edges: with and
// without a declared length, at the cap and one byte past it, and with a
// declared length the client never finishes sending.
func TestBodyBoundaries(t *testing.T) {
	body := busRequestJSON(t, nil)
	limit := int64(len(body))
	s := New(Config{MaxBodyBytes: limit})
	var lengths sync.Map // request path+query -> the ContentLength the handler saw
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths.Store(r.URL.RequestURI(), r.ContentLength)
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	send := func(query string, body []byte, hideLength bool) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule?"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hideLength {
			req.ContentLength = -1 // sent chunked
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(body))
		if hideLength {
			want = -1
		}
		if got, _ := lengths.Load("/v1/schedule?" + query); got != want {
			t.Fatalf("%s: handler saw ContentLength %v, want %d", query, got, want)
		}
		return resp.StatusCode, out
	}

	// A body of exactly the cap is accepted, with or without its length.
	status, sized := send("sized", body, false)
	if status != http.StatusOK {
		t.Fatalf("body of exactly MaxBodyBytes: status %d (%s)", status, sized)
	}
	if status, chunked := send("chunked", body, true); status != http.StatusOK || !bytes.Equal(chunked, sized) {
		t.Errorf("chunked body: status %d, bytes equal to the sized answer: %v", status, bytes.Equal(chunked, sized))
	}

	// One byte more is too large, declared (the declared length is above
	// the cap) or not.
	tooLarge := fmt.Sprintf(`{"error":"body exceeds %d bytes"}`+"\n", limit)
	over := append(body[:len(body):len(body)], ' ')
	for _, hide := range []bool{false, true} {
		status, out := send(fmt.Sprintf("over-%v", hide), over, hide)
		if status != http.StatusRequestEntityTooLarge || string(out) != tooLarge {
			t.Errorf("one byte over the cap (length hidden: %v): %d %q, want 413 %q", hide, status, out, tooLarge)
		}
	}

	// A declared length the client never completes is a prompt 400 once
	// the client stops sending, not a wait for bytes that never come.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/schedule HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", limit, body[:10])
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("short body: no response: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":"read body: unexpected EOF"}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(out) != want {
		t.Errorf("short body: %d %q, want 400 %q", resp.StatusCode, out, want)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs after a warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// readBodySlack is what readBody may allocate besides the body's bytes: the
// allocator rounds a large buffer up to whole 8 KiB pages, and the capped
// reader takes a few dozen bytes more. Measured with Go 1.24 on
// linux/amd64: about 6,560 bytes over a 100,000-byte body, and 64 to 105
// over the 256 KiB eager bound. Reading the same body with io.ReadAll allocates about 4x it.
const readBodySlack = 9 << 10

// TestReadBodyAllocs pins the bytes readBody allocates. A body of declared
// length is read into one buffer of that length (plus the byte that takes
// EOF), after a first buffer of eagerBodyBytes when it is longer than that;
// a declared length far above what arrives reserves no more than
// eagerBodyBytes.
func TestReadBodyAllocs(t *testing.T) {
	s := New(Config{})
	read := func(body []byte, declared int64) func() {
		rd := bytes.NewReader(body)
		r := &http.Request{Method: http.MethodPost, Body: replayBody{rd}, ContentLength: declared}
		w := &discardWriter{h: make(http.Header)}
		return func() {
			rd.Reset(body)
			got, herr := s.readBody(w, r)
			if herr != nil || len(got) != len(body) {
				t.Fatalf("readBody: %d bytes, %v", len(got), herr)
			}
		}
	}
	body := bytes.Repeat([]byte("x"), 100_000)
	if got := allocBytesPerRun(20, read(body, int64(len(body)))); got > uint64(len(body))+readBodySlack {
		t.Errorf("declared %d-byte body: %d bytes allocated, want at most %d", len(body), got, len(body)+readBodySlack)
	} else {
		t.Logf("declared %d-byte body: %d bytes allocated", len(body), got)
	}
	// Past the eager bound the buffer grows to the declared length once.
	large := bytes.Repeat([]byte("y"), 300_000)
	if got := allocBytesPerRun(20, read(large, int64(len(large)))); got > eagerBodyBytes+uint64(len(large))+readBodySlack {
		t.Errorf("declared %d-byte body: %d bytes allocated, want at most %d", len(large), got, eagerBodyBytes+len(large)+readBodySlack)
	} else {
		t.Logf("declared %d-byte body: %d bytes allocated", len(large), got)
	}
	small := []byte("0123456789")
	if got := allocBytesPerRun(20, read(small, s.cfg.MaxBodyBytes)); got > eagerBodyBytes+readBodySlack {
		t.Errorf("10-byte body declared as %d: %d bytes allocated, want at most %d", s.cfg.MaxBodyBytes, got, eagerBodyBytes+readBodySlack)
	} else {
		t.Logf("10-byte body declared as %d: %d bytes allocated", s.cfg.MaxBodyBytes, got)
	}
}

// infBoundRequest is a certify request whose FT2 schedule certifies with an
// infinite worst-case bound: under one failure the certifier's date
// propagation never settles, although every output survives.
func infBoundRequest(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(15486194))
	inst, err := workload.RandomInstance(r, 20+r.Intn(41), 4, false, 1.0)
	if err != nil {
		t.Fatal(err)
	}
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
	body, err := json.Marshal(CertifyRequest{ScheduleRequest: ScheduleRequest{Graph: g, Arch: a, Spec: sp, Heuristic: "ft2", K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCertifyInfiniteBound is the regression test for a certified verdict
// with a +Inf bound, which JSON cannot represent: /v1/certify answered 500
// "json: unsupported value: +Inf". The bound must come back as "inf".
func TestCertifyInfiniteBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := post(t, ts.URL+"/v1/certify", infBoundRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d %s", resp.StatusCode, out)
	}
	var env struct {
		Verdict struct {
			Certified        bool
			FailureFreeBound float64
			WorstBound       string
			WorstSteadyBound string
		} `json:"verdict"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("certify envelope does not parse: %v\n%s", err, out)
	}
	v := env.Verdict
	if !v.Certified || v.WorstBound != "inf" || v.WorstSteadyBound != "inf" {
		t.Errorf("verdict = %+v, want certified with worst bounds \"inf\"", v)
	}
}

// TestWireVerdictMatchesVerdict pins that a finite verdict encodes exactly
// like a plain certify.Verdict, so wireVerdict cannot drift from it.
func TestWireVerdictMatchesVerdict(t *testing.T) {
	v := &certify.Verdict{
		Certified: true, Mode: sched.ModeFT1, ScheduleK: 1, K: 1, Procs: 3,
		PatternsChecked: 3, PatternsImplied: 1,
		FailureFreeBound: 8, WorstBound: 10.5, WorstPattern: []string{"P2"}, WorstSteadyBound: 9.25,
		Counterexample: &certify.Counterexample{FailureSet: []string{"P1"}, Output: "O", Path: []string{"x"}},
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(newWireVerdict(v))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire verdict encoding drifted:\n got %s\nwant %s", got, want)
	}
}
