package campaign

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/sim"
)

// blockSize is the fixed work-block granularity. It is part of the
// deterministic contract: blocks are fixed index ranges regardless of
// worker count, so the index-ordered merge folds identical partial sums.
const blockSize = 256

// Config tunes a campaign.
type Config struct {
	// N is the number of scenarios to run (required, positive).
	N int64
	// Seed derives every scenario: scenario i depends only on (Seed, i).
	Seed int64
	// Workers is the shard pool size; 0 means GOMAXPROCS. The report is
	// byte-identical at any worker count.
	Workers int
	// Iterations is the reactive-loop length per scenario (default 2: the
	// FT1 detection dynamics need a post-transient iteration).
	Iterations int
	// Deadline, when positive, is the per-iteration response-time
	// constraint counted in the miss rates.
	Deadline float64
	// MaxFaults caps the failures per scenario (default 1).
	MaxFaults int
	// K is the schedule's design fault-tolerance, used by the
	// Goemans/Lynch/Saias cross-check: fail-stop and burst scenarios with
	// at most K failures must complete every iteration.
	K int
	// Mix weights the scenario classes by name (see Class.String); it is
	// normalized internally. Nil means pure fail-stop (the paper's model).
	Mix map[string]float64
	// Retain is the number of worst-offender replay records kept
	// (default 3).
	Retain int
	// Obs, when non-nil, accumulates campaign counters and per-worker
	// block spans. Results are identical with or without a sink.
	Obs *obs.Sink
	// Cancel, when non-nil, aborts the campaign cooperatively: workers
	// poll it between scenarios and Run returns sim.ErrCanceled.
	Cancel *atomic.Bool
}

// campaignInstruments holds the pre-resolved obs counters.
type campaignInstruments struct {
	scenarios  *obs.Counter
	iterations *obs.Counter
	incomplete *obs.Counter
	misses     *obs.Counter
	blocks     *obs.Counter
	retained   *obs.Counter
}

func (in *campaignInstruments) resolve(s *obs.Sink) {
	if s == nil {
		return
	}
	in.scenarios = s.Counter("campaign.scenarios")
	in.iterations = s.Counter("campaign.iterations")
	in.incomplete = s.Counter("campaign.iterations.incomplete")
	in.misses = s.Counter("campaign.deadline.misses")
	in.blocks = s.Counter("campaign.blocks.merged")
	in.retained = s.Counter("campaign.offenders.retained")
}

// normalizeMix resolves the class weights to a cumulative distribution.
func normalizeMix(mix map[string]float64) ([numClasses]float64, error) {
	var w [numClasses]float64
	if len(mix) == 0 {
		w[ClassFailStop] = 1
	} else {
		for name, v := range mix { //ftlint:order-insensitive each entry writes its own class slot; the sum below is order-free
			c, err := ParseClass(name)
			if err != nil {
				return w, err
			}
			if v < 0 {
				return w, fmt.Errorf("campaign: negative weight %v for class %q", v, name)
			}
			w[c] = v
		}
	}
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return w, fmt.Errorf("campaign: scenario mix has no positive weight")
	}
	cum := 0.0
	for c := range w {
		cum += w[c] / total
		w[c] = cum
	}
	w[numClasses-1] = 1 // guard against rounding
	return w, nil
}

// Run executes the campaign and assembles the deterministic report.
func Run(m *sim.Model, cfg Config) (*Report, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("campaign: N must be positive (got %d)", cfg.N)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 2
	}
	if cfg.MaxFaults <= 0 {
		cfg.MaxFaults = 1
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cum, err := normalizeMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	if len(m.Procs()) == 0 {
		return nil, fmt.Errorf("campaign: model has no processors")
	}

	var ins campaignInstruments
	ins.resolve(cfg.Obs)
	binWidth := m.Makespan() * histSpan / histBins

	// Burst scenarios carry at least two failures regardless of MaxFaults;
	// size the per-fault-count bins so they are not silently folded down.
	faultBins := cfg.MaxFaults
	if prev := cum[ClassBurst-1]; cum[ClassBurst] > prev && faultBins < 2 {
		faultBins = 2
	}

	// Each worker keeps its own generator and Runner, built on its first
	// block. Blocks fold in ascending block order, so float sums and
	// offender retention are identical at any worker count.
	type shard struct {
		track  string
		gen    *generator
		runner *sim.Runner
	}
	shards := make([]shard, cfg.Workers)
	runCfg := sim.RunConfig{Iterations: cfg.Iterations, Deadline: cfg.Deadline}
	numBlocks := (cfg.N + blockSize - 1) / blockSize
	total := newBlockAgg(faultBins, cfg.Retain)
	var nextBlock, merged int64
	par.Ordered(cfg.Workers,
		func() (int64, bool) {
			if nextBlock >= numBlocks || (cfg.Cancel != nil && cfg.Cancel.Load()) {
				return 0, false
			}
			nextBlock++
			return nextBlock - 1, true
		},
		func(w int, b int64) *blockAgg {
			sh := &shards[w]
			if sh.runner == nil {
				sh.track = fmt.Sprintf("campaign/w%d", w)
				sh.gen = newGenerator(m, cfg.Seed, cfg.Iterations, cfg.MaxFaults, cum)
				sh.runner = m.NewRunner()
			}
			span := cfg.Obs.StartSpan(sh.track, "block")
			defer span.End()
			agg := newBlockAgg(faultBins, cfg.Retain)
			lo, hi := b*blockSize, (b+1)*blockSize
			if hi > cfg.N {
				hi = cfg.N
			}
			for i := lo; i < hi; i++ {
				if cfg.Cancel != nil && cfg.Cancel.Load() {
					return nil
				}
				sc, class, faults := sh.gen.scenario(i)
				st := sh.runner.RunStats(sc, runCfg)
				agg.add(i, class, faults, cfg.K, &st, binWidth)
			}
			return agg
		},
		func(agg *blockAgg) bool {
			if agg == nil {
				return true // canceled mid-block
			}
			ins.scenarios.Add(agg.total.Scenarios)
			ins.iterations.Add(agg.total.Iterations)
			ins.incomplete.Add(agg.total.IncompleteIterations)
			ins.misses.Add(agg.total.DeadlineMisses)
			total.merge(agg)
			merged++
			ins.blocks.Inc()
			return false
		})
	if cfg.Cancel != nil && cfg.Cancel.Load() {
		return nil, sim.ErrCanceled
	}
	if merged != numBlocks {
		return nil, fmt.Errorf("campaign: merged %d of %d blocks", merged, numBlocks)
	}
	ins.retained.Add(int64(len(total.offenders)))
	return buildReport(m, cfg, cum, total, binWidth), nil
}
