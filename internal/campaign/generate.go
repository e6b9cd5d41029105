// Package campaign is the sharded Monte-Carlo fault-campaign engine: it
// draws randomized failure scenarios from deterministic seed-derived
// streams, executes them against one compiled simulator model (internal/sim
// Model/Runner) across a pool of workers, and folds the results into
// streaming aggregates — response-time histogram and percentiles, per-class
// and per-fault-count rates, retained worst offenders with replay records,
// and a cross-check of the empirical tolerance against the analytic
// fault-bound of Goemans/Lynch/Saias ("On the number of faults a system can
// withstand without repairs"): a K-fault-tolerant schedule must complete
// every scenario with at most K fail-stop failures.
//
// Determinism is the design center. Scenario i is derived solely from
// (Seed, i); work is handed out in fixed index blocks; and every block's
// partial aggregate is folded in block order (par.Ordered), so
// the report — including float sums and retained offenders — is
// byte-identical at any worker count.
package campaign

import (
	"fmt"

	"ftsched/internal/sim"
)

// Class identifies a scenario generator family.
type Class int

// Scenario classes.
const (
	// ClassFailStop draws 1..MaxFaults permanent fail-stop processor
	// failures at independent random iterations and dates (the paper's
	// Section 5.1 failure model).
	ClassFailStop Class = iota
	// ClassIntermittent draws bounded fail-silent outages with recovery
	// points (the Section 6.1 Item 3 extension).
	ClassIntermittent
	// ClassBurst draws near-simultaneous failures: at least two processors
	// failing within 2% of the makespan in the same iteration — the
	// worst case for FT1's sequential failover timeouts.
	ClassBurst
	// ClassLinkFail draws link outages (the paper assumes links never
	// fail; this class probes that assumption).
	ClassLinkFail

	numClasses = 4
)

// String names the class (the report's JSON keys).
func (c Class) String() string {
	switch c {
	case ClassFailStop:
		return "failstop"
	case ClassIntermittent:
		return "intermittent"
	case ClassBurst:
		return "burst"
	case ClassLinkFail:
		return "linkfail"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass resolves a class name.
func ParseClass(name string) (Class, error) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown scenario class %q (want failstop, intermittent, burst, or linkfail)", name)
}

// prng is splitmix64: a tiny allocation-free generator whose whole state is
// one word, so every scenario index can reseed it from (seed, index) and be
// regenerated later without storing anything. (math/rand's global source is
// banned in critical packages by the nondet analyzer, and rand.New allocates
// per scenario.)
type prng struct{ s uint64 }

// reseed derives the stream for one (seed, index) pair.
func (p *prng) reseed(seed int64, index int64) {
	p.s = uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(index)*0xbf58476d1ce4e5b9
	p.next()
	p.next()
}

// next returns the next 64 random bits.
func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (p *prng) float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n). n must be positive. The modulo
// bias is ~2^-53 for the small n used here — irrelevant for a simulation
// workload and cheaper than rejection sampling on the hot path.
func (p *prng) intn(n int) int {
	return int(p.next() % uint64(n))
}

// generator derives the scenario for an index. One generator per worker;
// the perm and scenario buffers are reused so steady-state generation
// allocates nothing.
type generator struct {
	seed       int64
	iterations int
	maxFaults  int
	horizon    float64
	procs      []string
	links      []string
	cum        [numClasses]float64 // cumulative normalized class weights

	rng  prng
	perm []int
	sc   sim.Scenario
}

// newGenerator builds a worker-local generator. The mix must already be
// normalized (see normalizeMix).
func newGenerator(m *sim.Model, seed int64, iterations, maxFaults int, cum [numClasses]float64) *generator {
	procs, links := m.Procs(), m.Links()
	n := len(procs)
	if len(links) > n {
		n = len(links)
	}
	return &generator{
		seed:       seed,
		iterations: iterations,
		maxFaults:  maxFaults,
		horizon:    m.Makespan(),
		procs:      procs,
		links:      links,
		cum:        cum,
		perm:       make([]int, n),
	}
}

// scenario regenerates scenario index deterministically from (seed, index).
// The returned Scenario aliases the generator's buffers: it is valid until
// the next call.
func (g *generator) scenario(index int64) (sim.Scenario, Class, int) {
	g.rng.reseed(g.seed, index)
	g.sc.Failures = g.sc.Failures[:0]
	g.sc.Links = g.sc.Links[:0]

	class := g.pickClass()
	switch class {
	case ClassFailStop:
		return g.failStop()
	case ClassIntermittent:
		return g.intermittent()
	case ClassBurst:
		return g.burst()
	default:
		return g.linkFail()
	}
}

// pickClass draws the scenario class from the mix, then applies the
// feasibility fallbacks (burst needs two processors, linkfail needs a
// link): infeasible draws degrade to fail-stop so the campaign never
// silently under-delivers scenarios.
func (g *generator) pickClass() Class {
	u := g.rng.float64()
	class := Class(numClasses - 1)
	for c := Class(0); c < numClasses; c++ {
		if u < g.cum[c] {
			class = c
			break
		}
	}
	if class == ClassBurst && len(g.procs) < 2 {
		class = ClassFailStop
	}
	if class == ClassLinkFail && len(g.links) == 0 {
		class = ClassFailStop
	}
	return class
}

// pickProcs draws n distinct processor indices into perm[:n] (partial
// Fisher-Yates over the reusable buffer).
func (g *generator) pickProcs(n int) []int {
	for i := range g.procs {
		g.perm[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + g.rng.intn(len(g.procs)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
	return g.perm[:n]
}

// faultCount draws 1..min(maxFaults, limit).
func (g *generator) faultCount(limit int) int {
	n := g.maxFaults
	if limit < n {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return 1 + g.rng.intn(n)
}

func (g *generator) failStop() (sim.Scenario, Class, int) {
	n := g.faultCount(len(g.procs))
	for _, pi := range g.pickProcs(n) {
		g.sc.Failures = append(g.sc.Failures, sim.Failure{
			Proc:      g.procs[pi],
			Iteration: g.rng.intn(g.iterations),
			At:        g.rng.float64() * g.horizon,
		})
	}
	return g.sc, ClassFailStop, n
}

func (g *generator) intermittent() (sim.Scenario, Class, int) {
	n := g.faultCount(len(g.procs))
	for _, pi := range g.pickProcs(n) {
		iter := g.rng.intn(g.iterations)
		at := g.rng.float64() * g.horizon
		f := sim.Failure{Proc: g.procs[pi], Iteration: iter, At: at}
		if g.rng.intn(2) == 0 || iter == g.iterations-1 {
			// Recover within the same iteration.
			f.RecoverIteration = iter
			f.RecoverAt = at + (0.05+g.rng.float64()*0.45)*g.horizon
		} else {
			// A later iteration: RecoverIteration >= 1 keeps the failure
			// distinguishable from a permanent one even when RecoverAt is 0.
			f.RecoverIteration = iter + 1 + g.rng.intn(g.iterations-iter-1)
			f.RecoverAt = g.rng.float64() * g.horizon
		}
		g.sc.Failures = append(g.sc.Failures, f)
	}
	return g.sc, ClassIntermittent, n
}

func (g *generator) burst() (sim.Scenario, Class, int) {
	// At least two failures within a 2%-of-makespan window of the same
	// iteration: FT1's failover chains then time out back to back, which is
	// the paper's stated weakness of the first solution.
	limit := len(g.procs)
	n := g.faultCount(limit)
	if n < 2 {
		n = 2
	}
	iter := g.rng.intn(g.iterations)
	window := g.horizon * 0.02
	base := g.rng.float64() * (g.horizon - window)
	for _, pi := range g.pickProcs(n) {
		g.sc.Failures = append(g.sc.Failures, sim.Failure{
			Proc:      g.procs[pi],
			Iteration: iter,
			At:        base + g.rng.float64()*window,
		})
	}
	return g.sc, ClassBurst, n
}

func (g *generator) linkFail() (sim.Scenario, Class, int) {
	n := g.faultCount(len(g.links))
	for i := range g.links {
		g.perm[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + g.rng.intn(len(g.links)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
	for _, li := range g.perm[:n] {
		iter := g.rng.intn(g.iterations)
		at := g.rng.float64() * g.horizon
		f := sim.LinkFailure{Link: g.links[li], Iteration: iter, At: at}
		if g.rng.intn(2) == 0 {
			f.RecoverIteration = iter
			f.RecoverAt = at + (0.05+g.rng.float64()*0.45)*g.horizon
		}
		g.sc.Links = append(g.sc.Links, f)
	}
	return g.sc, ClassLinkFail, n
}
