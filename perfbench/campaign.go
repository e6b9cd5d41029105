package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ftsched/internal/arch"
	"ftsched/internal/campaign"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// campaignConfig sizes the campaign workload: Monte-Carlo fault injection
// on one FT1 bus model and one FT2 mesh model compiled during set-up.
type campaignConfig struct {
	models []campaignModel
	// pool is the number of recorded instances per model and seeds the
	// number of recorded campaign seeds. The run seed picks perModel
	// consecutive instances of each model and one campaign seed.
	pool, perModel, seeds int
	// n is the scenario count of one campaign.Run call.
	n         int64
	maxFaults int
}

// campaignModel is one model's problem shape.
type campaignModel struct {
	bus        bool
	ops, procs int
}

// defaultCampaign uses models large enough that per-scenario simulation,
// not block bookkeeping, dominates the time.
var defaultCampaign = campaignConfig{
	models: []campaignModel{
		{bus: true, ops: 60, procs: 6},
		{bus: false, ops: 60, procs: 6},
	},
	pool:      8,
	perModel:  2,
	seeds:     4,
	n:         1024,
	maxFaults: 2,
}

// campaignMix weights the four fault classes equally.
var campaignMix = map[string]float64{"failstop": 1, "intermittent": 1, "burst": 1, "linkfail": 1}

// campaignSeedSlot is the pick slot of the campaign seed, past any model.
const campaignSeedSlot = 1000

// compiledModel is one model ready for campaign.Run.
type compiledModel struct {
	key        string // golden key prefix: campaign/<model>/<pool entry>
	m          *sim.Model
	ops, edges int
	procs      int
}

// model decodes, schedules, certifies and compiles pool entry j of model
// mi. Everything here is set-up; tr records the compile span.
func (c campaignConfig) model(mi, j int, tr *tracer) (*compiledModel, error) {
	cm := c.models[mi]
	r := rand.New(rand.NewSource(c.subseed(mi, j)))
	in, err := workload.RandomInstance(r, cm.ops, cm.procs, cm.bus, 1.0)
	if err != nil {
		return nil, err
	}
	gj, err := in.Graph.MarshalJSON()
	if err != nil {
		return nil, err
	}
	aj, err := in.Arch.MarshalJSON()
	if err != nil {
		return nil, err
	}
	sj, err := in.Spec.MarshalJSON()
	if err != nil {
		return nil, err
	}
	g, a, sp := new(graph.Graph), new(arch.Architecture), spec.New()
	if err := errors.Join(g.UnmarshalJSON(gj), a.UnmarshalJSON(aj), sp.UnmarshalJSON(sj)); err != nil {
		return nil, err
	}
	h := core.FT2
	if cm.bus {
		h = core.FT1
	}
	res, err := core.Schedule(h, g, a, sp, 1, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := res.Schedule.Validate(g, a, sp); err != nil {
		return nil, err
	}
	v, err := certify.Certify(res.Schedule, g, a, sp, 1)
	if err != nil {
		return nil, err
	}
	if !v.Certified {
		return nil, errors.New("campaign model is not certified for K=1")
	}
	out := &compiledModel{key: fmt.Sprintf("campaign/%d/%d", mi, j), ops: g.NumOps(), edges: len(g.Edges()), procs: cm.procs}
	err = tr.call("sim.compile", -1, func() (err error) {
		out.m, err = sim.Compile(res.Schedule, g, a, sp)
		return err
	})
	return out, err
}

// subseed is the generator seed of candidate j of model mi.
func (c campaignConfig) subseed(mi, j int) int64 { return int64(104729*(mi+1) + j) }

// prepare compiles the seed's models from the recorded pools.
func (c campaignConfig) prepare(seed int64, pools [][]int, tr *tracer) ([]*compiledModel, error) {
	var out []*compiledModel
	for mi, pool := range pools {
		first := pick(seed, mi, len(pool))
		for i := 0; i < c.perModel && i < len(pool); i++ {
			m, err := c.model(mi, pool[(first+i)%len(pool)], tr)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// runOne runs one campaign and returns its report document.
func (c campaignConfig) runOne(m *compiledModel, cseed int64, sink *obs.Sink) (*campaign.Report, []byte, error) {
	rep, err := campaign.Run(m.m, campaign.Config{
		N:         c.n,
		Seed:      cseed,
		Workers:   runtime.NumCPU(),
		MaxFaults: c.maxFaults,
		K:         1,
		Mix:       campaignMix,
		Obs:       sink,
	})
	if err != nil {
		return nil, nil, err
	}
	doc, err := rep.JSON()
	if err != nil {
		return nil, nil, err
	}
	if !rep.CrossCheck.Consistent {
		return rep, doc, errors.New("cross_check is not consistent")
	}
	return rep, doc, nil
}

func runCampaign(c campaignConfig, o runOpts, g golden) (*outcome, error) {
	out := &outcome{v: newVerifier(g)}
	var sink *obs.Sink
	if o.trace {
		out.tr, sink = newTracer(), obs.NewSink()
	}
	pools := make([][]int, len(c.models))
	for mi := range c.models {
		var err error
		if pools[mi], err = g.pool(fmt.Sprintf("campaign/%d/", mi)); err != nil {
			return nil, err
		}
	}
	var models []*compiledModel
	setup, err := timeSetup(func() (err error) {
		models, err = c.prepare(o.seed, pools, out.tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	cseed := pick(o.seed, campaignSeedSlot, c.seeds)

	var (
		tput, scen, alloc, untraced []float64 // per untraced pass; untraced in s
		traced                      []float64 // per traced pass: summed Run time
		messages, scenarios         float64   // traced passes
		lastKey                     string
		lastDoc                     []byte
	)
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < o.seconds || (o.trace && pass < 2); pass++ {
		isTraced := o.trace && pass%2 == 1
		var (
			s  *obs.Sink
			tr *tracer
		)
		if isTraced {
			s, tr = sink, out.tr
		}
		a0 := allocatedMB()
		busy := 0.0
		for _, m := range models {
			key := fmt.Sprintf("%s/%d", m.key, cseed)
			id := tr.begin("campaign.run", -1)
			t0 := time.Now()
			rep, doc, err := c.runOne(m, int64(cseed), s)
			d := time.Since(t0).Seconds()
			tr.end(id)
			busy += d
			out.v.check(key, err, doc)
			if err == nil {
				lastKey, lastDoc = key, doc
			}
			if isTraced && rep != nil {
				messages += float64(rep.Total.Messages)
				scenarios += float64(rep.Total.Scenarios)
			}
		}
		if isTraced {
			traced = append(traced, busy)
			continue
		}
		alloc = append(alloc, allocatedMB()-a0)
		untraced = append(untraced, busy)
		tput = append(tput, float64(len(models))/busy)
		scen = append(scen, float64(int64(len(models))*c.n)/busy)
	}
	heap := liveHeapMB()
	out.v.negativeControl(lastKey, lastDoc)

	sizes := make([]map[string]any, len(models))
	for i, m := range models {
		sizes[i] = map[string]any{"key": m.key, "ops": m.ops, "edges": m.edges, "procs": m.procs,
			"campaign_seed": cseed, "scenarios": c.n, "max_faults": c.maxFaults}
	}
	out.sizes, out.samples = sizes, len(untraced)
	if !o.trace {
		out.metrics = map[string]float64{
			"setup_s":         setup,
			"problems_per_s":  median(tput),
			"scenarios_per_s": median(scen),
			"latency_p50_ms":  1000 * percentile(untraced, 0.50),
			"latency_p99_ms":  1000 * percentile(untraced, 0.99),
			"alloc_mb":        median(alloc),
			"heap_live_mb":    heap,
		}
		return out, nil
	}
	d := dumpSink(sink)
	passes := float64(len(traced))
	spans := out.tr.byName()
	run := spans["campaign.run"].Total / passes
	busy := d.Timers["block"] / passes
	m := zeroLayers()
	m["sim.compile_s"] = spans["sim.compile"].Total / setupReps
	m["sim.scenario_us"] = 1e6 * d.Timers["block"] / scenarios
	m["sim.messages_per_scenario"] = messages / scenarios
	m["sim.us_per_message"] = 1e6 * ratio(d.Timers["block"], messages)
	m["campaign.run_s"] = run
	m["campaign.worker_busy_s"] = busy
	m["campaign.worker_util"] = ratio(busy, float64(runtime.NumCPU())*run)
	m["campaign.blocks.merged"] = float64(d.Counters["campaign.blocks.merged"]) / passes
	m["obs.trace_overhead_pct"] = overheadPct(median(traced), median(untraced))
	out.metrics, out.sinks = m, map[string]sinkDump{"campaign": d}
	return out, nil
}

// recordCampaign draws each model's pool and records the report digest of
// every (model, pool entry, campaign seed). Candidates are banded by the
// messages of a short pilot campaign, the closest proxy of their cost.
func recordCampaign(c campaignConfig, g golden) error {
	pilot := c
	pilot.n = 256
	for mi := range c.models {
		pool, err := banded(c.pool, func(j int) (int, error) {
			m, err := c.model(mi, j, nil)
			if err != nil {
				return 0, err
			}
			rep, _, err := pilot.runOne(m, 0, nil)
			if err != nil {
				return 0, err
			}
			return int(rep.Total.Messages), nil
		})
		if err != nil {
			return fmt.Errorf("campaign model %d: %w", mi, err)
		}
		for _, j := range pool {
			m, err := c.model(mi, j, nil)
			if err != nil {
				return fmt.Errorf("campaign model %d/%d: %w", mi, j, err)
			}
			for cs := 0; cs < c.seeds; cs++ {
				_, doc, err := c.runOne(m, int64(cs), nil)
				if err != nil {
					return fmt.Errorf("%s/%d: %w", m.key, cs, err)
				}
				g[fmt.Sprintf("%s/%d", m.key, cs)] = digest(doc)
			}
		}
	}
	return nil
}
