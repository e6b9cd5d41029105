package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// counter yields the jobs 0..n-1, then stops.
func counter(n int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i >= n {
			return 0, false
		}
		i++
		return i - 1, true
	}
}

// jitter sleeps a job-dependent time so later jobs often finish first.
func jitter(job int) {
	time.Sleep(time.Duration((job*7919)%5) * 50 * time.Microsecond)
}

// settled waits until the goroutine count is back to base, failing the test
// after a second.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Ordered returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

type result struct {
	job, w int
}

func TestOrderedFoldsInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		base := runtime.NumGoroutine()
		const n = 200
		var got []int
		Ordered(workers, counter(n),
			func(w, job int) result {
				jitter(job)
				return result{job, w}
			},
			func(r result) bool {
				if r.w < 0 || r.w >= max(workers, 1) {
					t.Errorf("workers=%d: job %d ran on worker %d", workers, r.job, r.w)
				}
				got = append(got, r.job)
				return false
			})
		if len(got) != n {
			t.Fatalf("workers=%d: folded %d jobs, want %d", workers, len(got), n)
		}
		for i, job := range got {
			if job != i {
				t.Fatalf("workers=%d: fold %d got job %d", workers, i, job)
			}
		}
		settled(t, base)
	}
}

func TestOrderedStopsOnFold(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		base := runtime.NumGoroutine()
		const stopAt = 37
		var folded int
		var yielded, worked atomic.Int64
		jobs := counter(1000)
		next := func() (int, bool) {
			yielded.Add(1)
			return jobs()
		}
		Ordered(workers, next,
			func(w, job int) int {
				worked.Add(1)
				jitter(job)
				return job
			},
			func(job int) bool {
				if job != folded {
					t.Errorf("workers=%d: folded job %d at position %d", workers, job, folded)
				}
				folded++
				return job == stopAt
			})
		if folded != stopAt+1 {
			t.Errorf("workers=%d: %d folds, want %d", workers, folded, stopAt+1)
		}
		// Beyond the stopping job, only the jobs already in the ring may
		// have been handed out.
		limit := int64(stopAt + 1)
		if workers > 1 {
			limit += int64(4 * workers)
		}
		if y, w := yielded.Load(), worked.Load(); y > limit || w > y {
			t.Errorf("workers=%d: next yielded %d and work ran %d times after a stop at job %d (limit %d)",
				workers, y, w, stopAt, limit)
		}
		settled(t, base)
	}
}

// A next that stops feeding mid-run, as on a raised cancel flag, ends the
// run after the jobs it yielded are folded.
func TestOrderedNextStopsFeeding(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		base := runtime.NumGoroutine()
		var cancel atomic.Bool
		i := 0
		next := func() (int, bool) {
			if cancel.Load() {
				return 0, false
			}
			i++
			return i - 1, true
		}
		var got []int
		Ordered(workers, next,
			func(w, job int) int {
				if job == 50 {
					cancel.Store(true)
				}
				jitter(job)
				return job
			},
			func(job int) bool {
				got = append(got, job)
				return false
			})
		if len(got) < 51 {
			t.Errorf("workers=%d: folded %d jobs, want at least the 51 up to the cancel", workers, len(got))
		}
		for k, job := range got {
			if job != k {
				t.Fatalf("workers=%d: fold %d got job %d", workers, k, job)
			}
		}
		if len(got) != i {
			t.Errorf("workers=%d: next yielded %d jobs but %d were folded", workers, i, len(got))
		}
		settled(t, base)
	}
}

func TestOrderedFewJobs(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		base := runtime.NumGoroutine()
		var got []int
		Ordered(8, counter(n),
			func(w, job int) int { return job * 10 },
			func(r int) bool {
				got = append(got, r)
				return false
			})
		if len(got) != n {
			t.Fatalf("n=%d: folded %v", n, got)
		}
		for i, r := range got {
			if r != i*10 {
				t.Errorf("n=%d: fold %d got %d", n, i, r)
			}
		}
		settled(t, base)
	}
}

func TestOrderedInlineAtOneWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	Ordered(1, counter(5),
		func(w, job int) int {
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("work ran with %d goroutines, want the caller's %d", n, base)
			}
			return job
		},
		func(int) bool { return false })
}

func TestWatch(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	flag, stop := Watch(done, nil)
	defer stop()
	if !flag.Load() {
		t.Error("a done context did not raise the flag before Watch returned")
	}

	ctx, cancel := context.WithCancel(context.Background())
	own := new(atomic.Bool)
	flag, stop = Watch(ctx, own)
	if flag != own || flag.Load() {
		t.Fatal("Watch must return the caller's flag, lowered")
	}
	cancel()
	deadline := time.Now().Add(time.Second)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Fatal("cancelling the context did not raise the flag")
		}
		time.Sleep(time.Millisecond)
	}
	stop()

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, stop = Watch(ctx, nil); !stop() {
		t.Error("stopping the watch of a live context did not prevent the raise")
	}
}
