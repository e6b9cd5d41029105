// Package par runs independent jobs on a bounded set of goroutines and folds
// their results back in job order, so whatever the fold builds is identical
// at any worker count. It also raises an engine's cooperative cancel flag
// from a context.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Ordered calls next for jobs until it reports false, runs work on each job
// on at most workers goroutines, and calls fold with each result on the
// caller's goroutine, in the order next yielded the jobs. When fold returns
// true the run stops: next is not called again, jobs handed out but not yet
// started are skipped without calling work, and no later result is folded.
// Ordered returns once every goroutine it started has finished.
//
// next runs on one goroutine at a time, so it may advance an enumerator and
// poll a cancel flag without locks. work receives its worker index in
// [0, workers), so per-worker state can live in a slice indexed by it. With
// workers <= 1 everything runs inline on the caller's goroutine.
func Ordered[J, R any](workers int, next func() (J, bool), work func(w int, job J) R, fold func(R) bool) {
	if workers <= 1 {
		for {
			job, ok := next()
			if !ok || fold(work(0, job)) {
				return
			}
		}
	}

	// At most window jobs are between next and fold at any time, so their
	// results fit a ring indexed by job number. The slack beyond one job per
	// worker lets the others run ahead of a slow job.
	window := 4 * workers
	type task struct {
		idx int
		job J
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		results = make([]R, window)
		ready   = make([]bool, window) // owned by the folding goroutine
		free    = make(chan struct{}, window)
		jobs    = make(chan task, workers) // one queued job per worker keeps them fed
		done    = make(chan int, window)   // never more than window sends outstanding
	)
	for i := 0; i < window; i++ {
		free <- struct{}{}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range jobs {
				if !stop.Load() {
					results[t.idx%window] = work(w, t.job)
				}
				done <- t.idx
			}
		}()
	}
	go func() {
		// A ring slot is free once its previous job was folded. After a stop
		// the folding side releases one more slot, so this loop always wakes
		// to see the flag.
		for idx := 0; ; idx++ {
			<-free
			if stop.Load() {
				break
			}
			job, ok := next()
			if !ok {
				break
			}
			jobs <- task{idx, job}
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()

	var zero R
	head := 0
	for idx := range done {
		if stop.Load() {
			continue // draining: the run is already decided
		}
		ready[idx%window] = true
		for ready[head%window] {
			s := head % window
			r := results[s]
			results[s], ready[s] = zero, false
			head++
			if fold(r) {
				stop.Store(true)
				free <- struct{}{}
				break
			}
			free <- struct{}{}
		}
	}
}

// Watch returns flag, or a new flag when flag is nil, raised once ctx is
// done, and a function that stops watching; the caller defers it. A context
// that is already done raises the flag before Watch returns, so a run handed
// a cancelled context fails deterministically. No goroutine starts unless
// ctx is done later.
func Watch(ctx context.Context, flag *atomic.Bool) (*atomic.Bool, func() bool) {
	if flag == nil {
		flag = new(atomic.Bool)
	}
	if ctx.Err() != nil {
		flag.Store(true)
		return flag, func() bool { return false }
	}
	return flag, context.AfterFunc(ctx, func() { flag.Store(true) })
}
