package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/serve"
	"ftsched/internal/workload"
)

// serveConfig sizes the serve workload: an in-process ftschedd with its
// default configuration under an open-loop request stream.
type serveConfig struct {
	// pool is the number of recorded problems; procs and [minOps, maxOps]
	// size each one. Even entries are FT1 on a bus, odd ones FT2 on a mesh.
	pool, procs, minOps, maxOps int
	// rate is the offered load in requests per second. It is frozen at
	// about half of the closed-loop capacity measured by TestServeCapacity.
	rate float64
	// repeat is the share of requests that repeat an earlier request of
	// the same kind; zipf skews which one (rank 0, the first issued, is the
	// most popular). The rest ask for a problem not asked before. The share
	// keeps the median request a cache hit, so latency_p50_ms measures the
	// hit path and latency_p99_ms the engines.
	repeat, zipf float64
}

var defaultServe = serveConfig{pool: 1024, procs: 4, minOps: 20, maxOps: 60, rate: 270, repeat: 0.8, zipf: 1.2}

// zipfHead flattens the head of the popularity law (P(k) ~ (zipfHead+k)^-zipf),
// so that no single problem's size dominates a run's figures.
const zipfHead = 50

// serveKinds fixes the request mix at schedule:certify:simulate = 2:1:1.
var serveKinds = []string{"schedule", "certify", "schedule", "simulate"}

// request is one HTTP request of the stream, due at its offset from the
// start of the timed phase.
type request struct {
	key, kind string
	body      []byte
	due       time.Duration
}

// problem encodes candidate problem i as the schedule request every kind
// builds on, and names the processor its simulate scenario fails.
func (c serveConfig) problem(i int) (serve.ScheduleRequest, string, error) {
	bus := i%2 == 0
	r := rand.New(rand.NewSource(int64(15485863 + i)))
	base := serve.ScheduleRequest{Heuristic: "ft2", K: 1}
	in, err := workload.RandomInstance(r, c.minOps+r.Intn(c.maxOps-c.minOps+1), c.procs, bus, 1.0)
	if err != nil {
		return base, "", err
	}
	if bus {
		base.Heuristic = "ft1"
	}
	if base.Graph, err = in.Graph.MarshalJSON(); err != nil {
		return base, "", err
	}
	if base.Arch, err = in.Arch.MarshalJSON(); err != nil {
		return base, "", err
	}
	if base.Spec, err = in.Spec.MarshalJSON(); err != nil {
		return base, "", err
	}
	return base, in.Arch.ProcessorNames()[i%c.procs], nil
}

// body encodes the request of the given kind on a problem. The documents
// are already compact JSON, so they are spliced in rather than re-encoded.
func body(base serve.ScheduleRequest, proc, kind string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"graph":%s,"arch":%s,"spec":%s,"heuristic":%q,"k":%d`, base.Graph, base.Arch, base.Spec, base.Heuristic, base.K)
	if kind == "simulate" {
		fmt.Fprintf(&b, `,"scenario":[{"proc":%q,"at":1}],"iterations":2`, proc)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// requests draws the seed's stream of n requests over the recorded pool.
func (c serveConfig) requests(seed int64, n int, pool []int) ([]request, error) {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(pool))
	next := map[string]int{}
	issued := map[string][]int{}
	bodies := map[string][]byte{}
	type encoded struct {
		base serve.ScheduleRequest
		proc string
	}
	problems := map[int]encoded{}
	out := make([]request, n)
	for i := range out {
		kind := serveKinds[i%len(serveKinds)]
		var prob int
		if seen := issued[kind]; len(seen) > 0 && r.Float64() < c.repeat {
			prob = seen[rand.NewZipf(r, c.zipf, zipfHead, uint64(len(seen)-1)).Uint64()]
		} else {
			if next[kind] == len(pool) {
				return nil, fmt.Errorf("serve: %d requests exhaust the pool of %d problems", n, len(pool))
			}
			prob = pool[perm[next[kind]]]
			next[kind]++
			issued[kind] = append(issued[kind], prob)
		}
		key := fmt.Sprintf("serve/%d/%s", prob, kind)
		if bodies[key] == nil {
			p, ok := problems[prob]
			if !ok {
				base, proc, err := c.problem(prob)
				if err != nil {
					return nil, err
				}
				p = encoded{base, proc}
				problems[prob] = p
			}
			bodies[key] = body(p.base, p.proc, kind)
		}
		out[i] = request{key: key, kind: kind, body: bodies[key],
			due: time.Duration(float64(i) / c.rate * float64(time.Second))}
	}
	return out, nil
}

// serveLoad is what one open-loop phase measured.
type serveLoad struct {
	lat, lag   []float64 // ms, per request
	hit        []bool    // X-Ftsched-Cache was "hit"
	backlogMax int
	elapsed    float64 // s, first due time to last response
	ok         int
	scenarios  float64 // certified patterns plus simulated scenarios reported
	allocMB    float64
	heapMB     float64
	sink       sinkDump
	// lastKey and lastBody are a correct response, for the negative control.
	lastKey  string
	lastBody []byte
}

// fire starts a fresh server on a loopback listener, replays reqs at their
// due times over at most nproc connections, checks every response body and
// stops the server.
func fire(reqs []request, v *verifier, tr *tracer) (*serveLoad, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	res := &serveLoad{lat: make([]float64, len(reqs)), lag: make([]float64, len(reqs)), hit: make([]bool, len(reqs))}
	scen := make([]float64, len(reqs))
	// Sized to the number of sends, so the generator never waits on the
	// workers and a stall shows as backlog and latency, not as lag.
	jobs := make(chan int, len(reqs))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		ok atomic.Int64
	)
	a0 := allocatedMB()
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rq := reqs[i]
				// A traced run traces every other request, so that the
				// tracing overhead is measured within one phase.
				var rtr *tracer
				if i%2 == 1 {
					rtr = tr
				}
				id := rtr.begin("serve.request."+rq.kind, -1)
				body, cache, err := post(client, base, rq)
				rtr.end(id)
				res.lat[i] = ms(time.Since(t0) - rq.due)
				res.hit[i] = cache == "hit"
				if err == nil {
					scen[i], err = reportedScenarios(rq.kind, body)
				}
				v.check(rq.key, err, body)
				if err == nil {
					ok.Add(1)
					mu.Lock()
					res.lastKey, res.lastBody = rq.key, body
					mu.Unlock()
				}
			}
		}()
	}
	for i := range reqs {
		if d := reqs[i].due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		res.lag[i] = ms(time.Since(t0) - reqs[i].due)
		if b := len(jobs); b > res.backlogMax {
			res.backlogMax = b
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(t0).Seconds()
	res.allocMB = allocatedMB() - a0
	res.heapMB = liveHeapMB()
	res.sink = dumpSink(srv.Sink())
	res.ok = int(ok.Load())
	for _, s := range scen {
		res.scenarios += s
	}

	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return res, err
}

// post sends one request and returns the response body and cache state.
func post(client *http.Client, base string, rq request) ([]byte, string, error) {
	resp, err := client.Post(base+"/v1/"+rq.kind, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, resp.Header.Get("X-Ftsched-Cache"), err
}

// reportedScenarios counts the fault scenarios a response reports on: the
// failure patterns a certificate checked, or the one simulated scenario.
func reportedScenarios(kind string, body []byte) (float64, error) {
	switch kind {
	case "certify":
		var doc struct {
			Verdict struct {
				Certified       bool
				PatternsChecked int
			}
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, err
		}
		if !doc.Verdict.Certified {
			return 0, errors.New("verdict is not Certified")
		}
		return float64(doc.Verdict.PatternsChecked), nil
	case "simulate":
		return 1, nil
	}
	return 0, nil
}

// latencyWindows is the number of consecutive windows the stream is cut
// into; a latency percentile is the median of the windows' percentiles, so
// one stall of the host moves one window rather than the run's figure.
// Each window keeps well over ten samples beyond its p99.
const latencyWindows = 5

// windowed is the median over latencyWindows consecutive windows of lat
// (in due-time order) of each window's p-quantile.
func windowed(lat []float64, p float64) float64 {
	if len(lat) < latencyWindows {
		return percentile(lat, p)
	}
	qs := make([]float64, latencyWindows)
	for w := range qs {
		qs[w] = percentile(lat[w*len(lat)/latencyWindows:(w+1)*len(lat)/latencyWindows], p)
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runServe(c serveConfig, o runOpts, g golden) (*outcome, error) {
	n := int(c.rate * o.seconds)
	if n < 2 {
		n = 2
	}
	pool, err := g.pool("serve/")
	if err != nil {
		return nil, err
	}
	var reqs []request
	setup, err := timeSetup(func() (err error) {
		reqs, err = c.requests(o.seed, n, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{v: newVerifier(g)}
	distinct := map[string]bool{}
	for _, rq := range reqs {
		distinct[rq.key] = true
	}
	out.sizes = map[string]any{"requests": n, "distinct": len(distinct), "rate_per_s": c.rate,
		"repeat_share": c.repeat, "ops": []int{c.minOps, c.maxOps}, "procs": c.procs, "connections": runtime.NumCPU()}
	if o.trace {
		out.tr = newTracer()
	}
	load, err := fire(reqs, out.v, out.tr)
	if err != nil {
		return nil, err
	}
	out.v.negativeControl(load.lastKey, load.lastBody)
	out.samples = len(load.lat)
	if !o.trace {
		out.metrics = map[string]float64{
			"setup_s":         setup,
			"problems_per_s":  float64(load.ok) / load.elapsed,
			"scenarios_per_s": load.scenarios / load.elapsed,
			"latency_p50_ms":  windowed(load.lat, 0.50),
			"latency_p99_ms":  windowed(load.lat, 0.99),
			"alloc_mb":        load.allocMB,
			"heap_live_mb":    load.heapMB,
		}
		return out, nil
	}
	out.sinks = map[string]sinkDump{"serve": load.sink}
	out.metrics = serveLayers(load)
	var traced, plain []float64
	for i, l := range load.lat {
		if i%2 == 1 {
			traced = append(traced, l)
		} else {
			plain = append(plain, l)
		}
	}
	out.metrics["obs.trace_overhead_pct"] = overheadPct(mean(traced), mean(plain))
	return out, nil
}

// serveLayers derives the per-layer metrics of one traced phase.
func serveLayers(load *serveLoad) map[string]float64 {
	m := zeroLayers()
	d := load.sink
	cnt := func(name string) float64 { return float64(d.Counters[name]) }
	var hits, misses []float64
	for i, l := range load.lat {
		if load.hit[i] {
			hits = append(hits, l)
		} else {
			misses = append(misses, l)
		}
	}
	engine := 1000 * (d.Timers["serve.schedule"] + d.Timers["serve.certify"] + d.Timers["serve.simulate"]) / float64(len(load.lat))
	m["serve.cache_hit_ratio"] = ratio(cnt("serve.cache.hits"), cnt("serve.cache.hits")+cnt("serve.cache.misses"))
	m["serve.singleflight.shared"] = cnt("serve.singleflight.shared")
	for _, k := range []string{"schedule", "certify", "simulate"} {
		m["serve.engine."+k] = cnt("serve.engine." + k)
	}
	m["serve.engine_ms_mean"] = engine
	m["serve.overhead_ms_mean"] = mean(load.lat) - engine
	m["serve.hit_latency_p50_ms"] = percentile(hits, 0.50)
	m["serve.miss_latency_p50_ms"] = percentile(misses, 0.50)
	m["load.lag_ms_p99"] = percentile(load.lag, 0.99)
	m["load.backlog_max"] = float64(load.backlogMax)
	m["certify.certify_s"] = d.Timers["serve.certify"]
	addCertify(m, d, 1)
	return m
}

// recordServe records the response digest of every kind for the first
// c.pool candidate problems the service answers, through the handler of a
// fresh server. A candidate with any non-200 answer stays out of the pool:
// a certified FT2 verdict can carry an infinite bound, which the service
// cannot encode.
func recordServe(c serveConfig, g golden) error {
	h := serve.New(serve.Config{}).Handler()
	for i, kept := 0, 0; kept < c.pool; i++ {
		if i > 2*c.pool {
			return fmt.Errorf("serve: only %d of %d candidates answered", kept, c.pool)
		}
		base, proc, err := c.problem(i)
		if err != nil {
			return err
		}
		digests := map[string]string{}
		for _, kind := range []string{"schedule", "certify", "simulate"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body(base, proc, kind))))
			if rec.Code != http.StatusOK {
				break
			}
			if _, err := reportedScenarios(kind, rec.Body.Bytes()); err != nil {
				return fmt.Errorf("serve/%d/%s: %w", i, kind, err)
			}
			digests[fmt.Sprintf("serve/%d/%s", i, kind)] = digest(rec.Body.Bytes())
		}
		if len(digests) < 3 {
			continue
		}
		for k, d := range digests {
			g[k] = d
		}
		kept++
	}
	return nil
}
