package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ftsched/internal/arch"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// designConfig sizes the design workload: one closed-loop client running
// the ftsched -certify -format json sequence on a fixed set of problems.
type designConfig struct {
	procs int
	// pool is the number of instances recorded per slot; the seed picks
	// perSlot consecutive ones, wrapping around.
	pool, perSlot int
	slots         []designSlot
}

// designSlot is one problem of the set: FT1 on a bus or FT2 on a full
// mesh, with its operation count and tolerance K.
type designSlot struct {
	bus bool
	ops int
	k   int
}

// defaultDesign is sized so that bus and mesh problems each take about
// half of a pass: buses exercise the gap memo, meshes the multi-MB specs.
// The K=2 problem exercises the certifier's C(P,K) frontier.
var defaultDesign = designConfig{
	procs:   8,
	pool:    8,
	perSlot: 2,
	slots: []designSlot{
		{bus: true, ops: 100, k: 1},
		{bus: true, ops: 200, k: 1},
		{bus: true, ops: 400, k: 1},
		{bus: true, ops: 150, k: 2},
		{bus: false, ops: 100, k: 1},
		{bus: false, ops: 300, k: 1},
	},
}

// designProblem is one problem in the JSON form the CLI reads.
type designProblem struct {
	key                 string
	family              string // "bus" or "p2p"
	h                   core.Heuristic
	k                   int
	ops, edges          int
	graph, arch, specJS []byte
}

// problem generates pool entry j of slot s and encodes it.
func (c designConfig) problem(s, j int) (*designProblem, error) {
	sl := c.slots[s]
	r := rand.New(rand.NewSource(int64(7919*(s+1) + j)))
	in, err := workload.RandomInstance(r, sl.ops, c.procs, sl.bus, 1.0)
	if err != nil {
		return nil, err
	}
	p := &designProblem{key: fmt.Sprintf("design/%d/%d", s, j), family: "p2p", h: core.FT2, k: sl.k,
		ops: in.Graph.NumOps(), edges: len(in.Graph.Edges())}
	if sl.bus {
		p.family, p.h = "bus", core.FT1
	}
	if p.graph, err = in.Graph.MarshalJSON(); err != nil {
		return nil, err
	}
	if p.arch, err = in.Arch.MarshalJSON(); err != nil {
		return nil, err
	}
	if p.specJS, err = in.Spec.MarshalJSON(); err != nil {
		return nil, err
	}
	return p, nil
}

// prepare generates the seed's problem set from the recorded pools.
func (c designConfig) prepare(seed int64, g golden) ([]*designProblem, error) {
	var out []*designProblem
	for s := range c.slots {
		pool, err := g.pool(fmt.Sprintf("design/%d/", s))
		if err != nil {
			return nil, err
		}
		first := pick(seed, s, len(pool))
		for i := 0; i < c.perSlot && i < len(pool); i++ {
			p, err := c.problem(s, pool[(first+i)%len(pool)])
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// solve runs the CLI sequence: decode, schedule, validate, certify, encode
// and indent. tr and sink are nil in untraced passes.
func (p *designProblem) solve(tr *tracer, sink *obs.Sink) ([]byte, *certify.Verdict, error) {
	root := tr.begin("problem."+p.family, -1)
	defer tr.end(root)
	g, a, sp := new(graph.Graph), new(arch.Architecture), spec.New()
	if err := tr.call("graph.decode."+p.family, root, func() error { return g.UnmarshalJSON(p.graph) }); err != nil {
		return nil, nil, err
	}
	if err := tr.call("arch.decode."+p.family, root, func() error { return a.UnmarshalJSON(p.arch) }); err != nil {
		return nil, nil, err
	}
	if err := tr.call("spec.decode."+p.family, root, func() error { return sp.UnmarshalJSON(p.specJS) }); err != nil {
		return nil, nil, err
	}
	var res *core.Result
	err := tr.call("core.schedule."+p.family, root, func() (err error) {
		res, err = core.Schedule(p.h, g, a, sp, p.k, core.Options{Obs: sink})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.call("sched.validate", root, func() error { return res.Schedule.Validate(g, a, sp) }); err != nil {
		return nil, nil, err
	}
	var v *certify.Verdict
	err = tr.call("certify.certify", root, func() (err error) {
		v, err = certify.CertifyWith(res.Schedule, g, a, sp, p.k, certify.Options{Obs: sink})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = tr.call("sched.encode", root, func() error {
		data, err := res.Schedule.MarshalJSON()
		if err != nil {
			return err
		}
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			return err
		}
		return buf.WriteByte('\n')
	})
	return buf.Bytes(), v, err
}

// designOutput is the checked form of a solved problem: the schedule
// document and the certification report the CLI prints. The report is
// text because a certified verdict may carry an infinite bound, which
// encoding/json rejects.
func designOutput(doc []byte, v *certify.Verdict, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	if !v.Certified {
		return nil, errors.New("verdict is not Certified")
	}
	return [][]byte{doc, []byte(v.Report())}, nil
}

func runDesign(c designConfig, o runOpts, g golden) (*outcome, error) {
	var probs []*designProblem
	setup, err := timeSetup(func() (err error) {
		probs, err = c.prepare(o.seed, g)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{v: newVerifier(g)}
	sinks := map[string]*obs.Sink{}
	if o.trace {
		out.tr = newTracer()
		sinks["bus"], sinks["p2p"] = obs.NewSink(), obs.NewSink()
	}

	var (
		lat                         []float64 // per-problem latency, ms, untraced passes
		tput, scen, alloc, untraced []float64 // per untraced pass
		traced                      []float64 // per traced pass: summed problem time
		lastKey                     string
		lastOut                     [][]byte
	)
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < o.seconds || (o.trace && pass < 2); pass++ {
		isTraced := o.trace && pass%2 == 1
		a0 := allocatedMB()
		busy, patterns := 0.0, 0.0
		for _, p := range probs {
			var (
				tr   *tracer
				sink *obs.Sink
			)
			if isTraced {
				tr, sink = out.tr, sinks[p.family]
			}
			t0 := time.Now()
			doc, v, err := p.solve(tr, sink)
			d := time.Since(t0).Seconds()
			busy += d
			if !isTraced {
				lat = append(lat, 1000*d)
			}
			parts, err := designOutput(doc, v, err)
			out.v.check(p.key, err, parts...)
			if err == nil {
				patterns += float64(v.PatternsChecked)
				lastKey, lastOut = p.key, parts
			}
		}
		if isTraced {
			traced = append(traced, busy)
			continue
		}
		alloc = append(alloc, allocatedMB()-a0)
		untraced = append(untraced, busy)
		tput = append(tput, float64(len(probs))/busy)
		scen = append(scen, patterns/busy)
	}
	heap := liveHeapMB()
	out.v.negativeControl(lastKey, lastOut...)

	sizes := make([]map[string]any, len(probs))
	for i, p := range probs {
		sizes[i] = map[string]any{"key": p.key, "family": p.family, "ops": p.ops, "edges": p.edges,
			"procs": c.procs, "k": p.k, "spec_bytes": len(p.specJS)}
	}
	out.sizes, out.samples = sizes, len(lat)
	if !o.trace {
		out.metrics = map[string]float64{
			"setup_s":         setup,
			"problems_per_s":  median(tput),
			"scenarios_per_s": median(scen),
			"latency_p50_ms":  percentile(lat, 0.50),
			"latency_p99_ms":  percentile(lat, 0.99),
			"alloc_mb":        median(alloc),
			"heap_live_mb":    heap,
		}
		return out, nil
	}
	out.metrics = designLayers(probs, out.tr, sinks, float64(len(traced)))
	out.metrics["obs.trace_overhead_pct"] = overheadPct(median(traced), median(untraced))
	out.sinks = map[string]sinkDump{"bus": dumpSink(sinks["bus"]), "p2p": dumpSink(sinks["p2p"])}
	return out, nil
}

// designLayers derives the per-layer metrics, per traced pass, from the
// benchmark's spans and the per-family engine sinks.
func designLayers(probs []*designProblem, tr *tracer, sinks map[string]*obs.Sink, passes float64) map[string]float64 {
	m := zeroLayers()
	spans := tr.byName()
	per := func(x float64) float64 { return x / passes }
	for _, fam := range []string{"bus", "p2p"} {
		d := dumpSink(sinks[fam])
		for _, layer := range []string{"graph", "arch", "spec"} {
			m[layer+".decode_s."+fam] = per(spans[layer+".decode."+fam].Total)
		}
		for _, p := range probs {
			if p.family == fam {
				m["spec.input_mb."+fam] += float64(len(p.specJS)) / 1e6
			}
		}
		sched := per(spans["core.schedule."+fam].Total)
		eval, commit, delayed := per(d.Timers["evaluate"]), per(d.Timers["commit"]), per(d.Timers["delayed-edges"])
		m["core.schedule_s."+fam] = sched
		m["core.evaluate_s."+fam] = eval
		m["core.commit_s."+fam] = commit
		m["core.delayed_edges_s."+fam] = delayed
		m["core.other_s."+fam] = sched - eval - commit - delayed
		m["core.steps."+fam] = per(float64(d.Counters["core.steps"]))
		m["core.evals."+fam] = per(float64(d.Counters["core.evals"]))
		m["core.cache.hits."+fam] = per(float64(d.Counters["core.cache.hits"]))
		m["core.gap.searches."+fam] = per(float64(d.Counters["core.gap.searches"]))
		m["core.gap.memo_hit_ratio."+fam] = ratio(float64(d.Counters["core.gap.memo.hits"]), float64(d.Counters["core.gap.searches"]))
		addCertify(m, d, passes)
	}
	m["sched.validate_s"] = per(spans["sched.validate"].Total)
	m["sched.encode_s"] = per(spans["sched.encode"].Total)
	m["certify.certify_s"] = per(spans["certify.certify"].Total)
	return m
}

// addCertify adds a sink's certifier timers and counters, per pass.
func addCertify(m map[string]float64, d sinkDump, passes float64) {
	for _, t := range []string{"index", "baseline", "cones", "frontier"} {
		m["certify."+t+"_s"] += d.Timers[t] / passes
	}
	for _, c := range []string{"patterns.checked", "evals.incremental", "fixpoint.rounds", "cone.dirty.hops"} {
		m["certify."+c] += float64(d.Counters["certify."+c]) / passes
	}
}

// recordDesign draws each slot's pool and records the digest of every
// entry.
func recordDesign(c designConfig, g golden) error {
	for s := range c.slots {
		pool, err := banded(c.pool, func(j int) (int, error) {
			p, err := c.problem(s, j)
			if err != nil {
				return 0, err
			}
			return p.edges, nil
		})
		if err != nil {
			return fmt.Errorf("design slot %d: %w", s, err)
		}
		for _, j := range pool {
			p, err := c.problem(s, j)
			if err != nil {
				return err
			}
			parts, err := designOutput(p.solve(nil, nil))
			if err != nil {
				return fmt.Errorf("%s: %w", p.key, err)
			}
			g[p.key] = digest(parts...)
		}
	}
	return nil
}
