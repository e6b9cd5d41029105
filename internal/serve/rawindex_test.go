package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/workload"
)

// aliasCount reports how many raw digests the cache indexes.
func aliasCount(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.aliases)
}

// TestRawIndexRepeat: a byte-identical repeat is answered from the raw index
// with the bytes of the first response, in both response formats.
func TestRawIndexRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)

	resp, cli := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ftsched-Cache") != "miss" {
		t.Fatalf("first request: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Ftsched-Cache"))
	}
	if got := s.ins.cacheRaw.Value(); got != 0 {
		t.Fatalf("raw hits after a miss = %d, want 0", got)
	}
	resp, cli2 := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("repeat cache state = %q, want hit", resp.Header.Get("X-Ftsched-Cache"))
	}
	if got := s.ins.cacheRaw.Value(); got != 1 {
		t.Errorf("raw hits after a repeat = %d, want 1", got)
	}
	if !bytes.Equal(cli2, cli) {
		t.Error("raw hit returned different ?format=cli bytes")
	}
	if !bytes.Equal(cli, cliBytesFor(t, core.FT1, 1)) {
		t.Error("?format=cli bytes differ from the CLI's")
	}

	// The default envelope comes from the same outcome: equal to what a
	// server that never saw the body computes.
	_, env := post(t, ts.URL+"/v1/schedule", body)
	if got := s.ins.cacheRaw.Value(); got != 2 {
		t.Errorf("raw hits = %d, want 2", got)
	}
	_, fresh := newTestServer(t, Config{})
	if _, want := post(t, fresh.URL+"/v1/schedule", body); !bytes.Equal(env, want) {
		t.Error("raw hit envelope differs from a fresh server's miss")
	}
	if got := s.ins.cacheHits.Value(); got != 2 {
		t.Errorf("cache hits = %d, want 2 (raw hits count as hits)", got)
	}
	if got := s.ins.runSched.Value(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
}

// TestRawIndexVariant: a whitespace or key-order variant of a cached body
// takes the canonical path once, returns identical bytes, and is then
// indexed under its own digest.
func TestRawIndexVariant(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := busRequestJSON(t, nil)
	indented, err := json.MarshalIndent(json.RawMessage(base), "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	_, want := post(t, ts.URL+"/v1/schedule", base)
	for i, variant := range [][]byte{busRequestReordered(t), indented} {
		resp, got := post(t, ts.URL+"/v1/schedule", variant)
		if resp.Header.Get("X-Ftsched-Cache") != "hit" || s.ins.cacheRaw.Value() != 0 {
			t.Errorf("variant %d: cache %q, raw hits %d; want a canonical hit", i,
				resp.Header.Get("X-Ftsched-Cache"), s.ins.cacheRaw.Value())
		}
		if !bytes.Equal(got, want) {
			t.Errorf("variant %d: canonical hit returned different bytes", i)
		}
	}
	if got := aliasCount(s); got != 3 {
		t.Errorf("aliases = %d, want 3 (base and two variants)", got)
	}
	for i, variant := range [][]byte{busRequestReordered(t), indented} {
		before := s.ins.cacheRaw.Value()
		if _, got := post(t, ts.URL+"/v1/schedule", variant); !bytes.Equal(got, want) {
			t.Errorf("variant %d: raw hit returned different bytes", i)
		}
		if s.ins.cacheRaw.Value() != before+1 {
			t.Errorf("variant %d: repeat was not served from the raw index", i)
		}
	}
}

// TestRawIndexKindSeparates: the same body sent to two endpoints has two
// outcomes, so the kind must be part of the raw digest.
func TestRawIndexKindSeparates(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	_, schedOut := post(t, ts.URL+"/v1/schedule", body)
	resp, certOut := post(t, ts.URL+"/v1/certify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d %s", resp.StatusCode, certOut)
	}
	if bytes.Equal(schedOut, certOut) {
		t.Fatal("certify answered with the schedule outcome")
	}
	if got := s.ins.cacheRaw.Value(); got != 0 {
		t.Errorf("raw hits = %d, want 0", got)
	}
	if got := s.ins.runCertify.Value(); got != 1 {
		t.Errorf("certify engine ran %d times, want 1", got)
	}
	if _, again := post(t, ts.URL+"/v1/certify", body); !bytes.Equal(again, certOut) || s.ins.cacheRaw.Value() != 1 {
		t.Error("certify repeat was not a raw hit with the same bytes")
	}
}

// TestRawIndexSkipsFailures: bodies that fail are never indexed, so they are
// validated again on every repeat.
func TestRawIndexSkipsFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"invalid", busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "nope" }), http.StatusBadRequest},
		{"infeasible", busRequestJSON(t, func(m map[string]any) { m["deadline"] = 0.001 }), http.StatusUnprocessableEntity},
	} {
		var first []byte
		for i := 0; i < 2; i++ {
			resp, out := post(t, ts.URL+"/v1/schedule", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			}
			if i == 1 && !bytes.Equal(out, first) {
				t.Errorf("%s: repeat returned different bytes", tc.name)
			}
			first = out
		}
	}
	if n := aliasCount(s); n != 0 || s.ins.cacheRaw.Value() != 0 {
		t.Errorf("failures indexed: %d aliases, %d raw hits", n, s.ins.cacheRaw.Value())
	}
	if got := s.ins.cacheMisses.Value(); got != 2 {
		t.Errorf("cache misses = %d, want 2 (the infeasible body, computed each time)", got)
	}
}

// TestRawIndexDisabled: with caching off, nothing is indexed.
func TestRawIndexDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: -1})
	body := busRequestJSON(t, nil)
	_, first := post(t, ts.URL+"/v1/schedule", body)
	resp, second := post(t, ts.URL+"/v1/schedule", body)
	if resp.Header.Get("X-Ftsched-Cache") != "miss" {
		t.Errorf("repeat cache state = %q, want miss", resp.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("uncached repeat returned different bytes")
	}
	if n := aliasCount(s); n != 0 || s.ins.cacheRaw.Value() != 0 {
		t.Errorf("disabled cache indexed: %d aliases, %d raw hits", n, s.ins.cacheRaw.Value())
	}
}

// TestRawIndexBatch: batch elements go through the raw index too.
func TestRawIndexBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	_, single := post(t, ts.URL+"/v1/schedule", body)
	breq, err := json.Marshal(BatchRequest{Requests: []json.RawMessage{body, body}})
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
	var want bytes.Buffer
	if err := json.Compact(&want, single); err != nil {
		t.Fatal(err)
	}
	for i, item := range bresp.Responses {
		var got bytes.Buffer
		if err := json.Compact(&got, item.Body); err != nil {
			t.Fatal(err)
		}
		if item.Status != http.StatusOK || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("element %d: status %d, body differs from the single response", i, item.Status)
		}
	}
	if got := s.ins.cacheRaw.Value(); got != 2 {
		t.Errorf("raw hits = %d, want 2 (one per batch element)", got)
	}
}

// The raw-hit pin below counts every allocation Handler makes to answer a
// byte-identical repeat of a cached /v1/schedule body: routing, the query
// parse, the capped body read, the digest and the response headers, with
// no decoding. Measured with Go 1.24 on linux/amd64; a canonical hit of the
// same problem makes about 320.
const rawHitAllocs = 10

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// hitDriver returns a function that sends body to path through h, reusing
// one request and one writer, and reports the response status.
func hitDriver(h http.Handler, path string, body []byte) func() int {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, replayBody{rd})
	w := &discardWriter{h: make(http.Header)}
	return func() int {
		rd.Reset(body)
		req.Body = replayBody{rd}
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		return w.status
	}
}

// TestRawHitAllocs pins the allocation count of a raw-index hit.
func TestRawHitAllocs(t *testing.T) {
	s := New(Config{})
	send := hitDriver(s.Handler(), "/v1/schedule", busRequestJSON(t, nil))
	if status := send(); status != http.StatusOK {
		t.Fatalf("warm-up status %d", status)
	}
	allocs := testing.AllocsPerRun(100, func() { send() })
	if got := s.ins.cacheRaw.Value(); got != 101 {
		t.Fatalf("raw hits = %d, want 101: the measured path is not the raw hit", got)
	}
	t.Logf("raw hit: %.0f allocs", allocs)
	if allocs > rawHitAllocs {
		t.Errorf("raw hit made %.0f allocations, pinned at %d", allocs, rawHitAllocs)
	}
}

// serveProblem is a serve-workload-sized request body: a 40-operation FT1
// problem on a 4-processor bus.
func serveProblem(tb testing.TB) []byte {
	tb.Helper()
	inst, err := workload.RandomInstance(rand.New(rand.NewSource(7)), 40, 4, true, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	var req ScheduleRequest
	if req.Graph, err = inst.Graph.MarshalJSON(); err != nil {
		tb.Fatal(err)
	}
	if req.Arch, err = inst.Arch.MarshalJSON(); err != nil {
		tb.Fatal(err)
	}
	if req.Spec, err = inst.Spec.MarshalJSON(); err != nil {
		tb.Fatal(err)
	}
	req.Heuristic, req.K = "ft1", 1
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkServeHit compares a raw-index hit with a canonical hit of the
// same cached problem. The canonical variant sends a new workers value on
// every iteration: workers is outside the content hash, so each body is a
// new spelling of the cached problem and must be decoded and re-hashed.
func BenchmarkServeHit(b *testing.B) {
	body := serveProblem(b)
	b.Run("raw", func(b *testing.B) {
		s := New(Config{})
		send := hitDriver(s.Handler(), "/v1/schedule", body)
		if status := send(); status != http.StatusOK {
			b.Fatalf("warm-up status %d", status)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
		}
	})
	b.Run("canonical", func(b *testing.B) {
		s := New(Config{})
		if status := hitDriver(s.Handler(), "/v1/schedule", body)(); status != http.StatusOK {
			b.Fatalf("warm-up status %d", status)
		}
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = append(body[:len(body)-1:len(body)-1], `,"workers":`+strconv.Itoa(i+2)+`}`...)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
		w := &discardWriter{h: make(http.Header)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Body = io.NopCloser(bytes.NewReader(bodies[i]))
			s.Handler().ServeHTTP(w, req)
		}
		b.StopTimer()
		if s.ins.cacheRaw.Value() != 0 || s.ins.cacheHits.Value() != int64(b.N) {
			b.Fatalf("canonical variant: %d raw hits, %d hits over %d iterations",
				s.ins.cacheRaw.Value(), s.ins.cacheHits.Value(), b.N)
		}
	})
}

// fuzzEndpoints are the request endpoints FuzzServeRepeat drives.
var fuzzEndpoints = []string{
	"/v1/schedule", "/v1/certify", "/v1/simulate",
	"/v1/schedule/batch", "/v1/certify/batch", "/v1/simulate/batch",
}

// FuzzServeRepeat sends an arbitrary body to every request endpoint three
// times: with its length declared, with it hidden (as a chunked body
// arrives), and declared again. The answer must be a 200 or a 4xx, never a
// 5xx or a panic, and the later sends (served from the raw index when the
// first succeeded) must return the same status and bytes as the first,
// whichever way readBody sized its buffer.
func FuzzServeRepeat(f *testing.F) {
	sched := busRequestJSON(f, nil)
	certify := busRequestJSON(f, func(m map[string]any) { m["certify_k"] = 1 })
	simulate := busRequestJSON(f, func(m map[string]any) {
		m["scenario"] = []map[string]any{{"proc": "P2", "at": 1.5}}
		m["iterations"] = 2
	})
	for _, body := range [][]byte{sched, certify, simulate, busRequestReordered(f)} {
		f.Add(body)
		indented, err := json.MarshalIndent(json.RawMessage(body), "", "\t")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indented)
		batch, err := json.Marshal(BatchRequest{Requests: []json.RawMessage{body, indented}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batch)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := New(Config{Workers: 1}).Handler()
		for _, path := range fuzzEndpoints {
			var status [3]int
			var out [3][]byte
			for i := range status {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				if i == 1 {
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				status[i], out[i] = rec.Code, rec.Body.Bytes()
			}
			if status[0] >= 500 {
				t.Fatalf("%s: status %d: %s", path, status[0], out[0])
			}
			for i := 1; i < len(status); i++ {
				if status[i] != status[0] || !bytes.Equal(out[i], out[0]) {
					t.Fatalf("%s: send %d answered %d %q after %d %q", path, i, status[i], out[i], status[0], out[0])
				}
			}
		}
	})
}
