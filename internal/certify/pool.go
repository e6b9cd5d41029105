package certify

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// frontierParallel streams the frontier through a bounded worker pool and
// merges the results back in enumeration order, so the verdict is
// bit-identical to the sequential loop: the same first-wins worst-bound
// tie-breaks, and on failure the lexicographically smallest failing pattern
// (the one the sequential engine would have stopped at) wins regardless of
// which worker finishes first. Workers only read shared model state — the
// failure-free fixpoint, the cones, the indexes — and synchronize solely
// through the channels here.
//
// Cancellation is cooperative: once the in-order merge hits a failing
// pattern it raises the stop flag; the producer stops feeding, and workers
// drain their remaining jobs without evaluating them. Later-indexed results
// (evaluated or skipped) are discarded by the merge, exactly like the
// patterns the sequential engine never reached.
//
// An external cancel flag (Options.Cancel) rides the same machinery: the
// producer polls it per pattern and stops feeding when it is raised. If the
// enumeration was cut short that way without a verdict-deciding pattern,
// the run fails with ErrCanceled instead of returning a partial verdict.
func (m *model) frontierParallel(v *Verdict, size, workers int, cancel *atomic.Bool) (*patternResult, error) {
	type job struct {
		idx int
		sub []int32
	}
	var stop, interrupted atomic.Bool
	jobs := make(chan job, workers)
	results := make(chan patternResult, workers)
	var wg sync.WaitGroup
	m.ins.workers.Add(int64(workers))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := fmt.Sprintf("certify/w%d", w)
			for j := range jobs {
				if stop.Load() {
					// Drained after the verdict was decided: report the slot
					// so the merge's reorder buffer stays dense, skip the
					// evaluation.
					results <- patternResult{idx: j.idx, sub: j.sub, completed: true}
					continue
				}
				span := m.obs.StartSpan(track, "pattern")
				pr := m.checkPattern(j.idx, j.sub)
				span.End()
				results <- pr
			}
		}(w)
	}
	go func() {
		enum := newPatternEnum(len(m.allPids), size)
		for idx := 0; ; idx++ {
			if cancel != nil && cancel.Load() {
				interrupted.Store(true)
				break
			}
			sub := enum.next()
			if sub == nil || stop.Load() {
				break
			}
			jobs <- job{idx: idx, sub: sub}
		}
		close(jobs)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Deterministic merge: buffer out-of-order arrivals and consume strictly
	// in enumeration order with the same logic as the sequential engine.
	var failing *patternResult
	pending := map[int]patternResult{}
	next := 0
	for pr := range results {
		if failing != nil {
			continue // draining: the verdict is already decided
		}
		pending[pr.idx] = pr
		for { //ftlint:allow-nopoll bounded: each trip consumes one buffered out-of-order result, of which there are at most len(patterns)
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if v.consume(m, p) {
				cp := p
				failing = &cp
				stop.Store(true)
				break
			}
		}
	}
	if failing == nil && interrupted.Load() {
		return nil, ErrCanceled
	}
	return failing, nil
}
