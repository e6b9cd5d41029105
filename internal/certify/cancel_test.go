package certify

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/paperex"
	"ftsched/internal/workload"
)

// A pre-raised cancel flag aborts the frontier on both engine paths.
func TestCancelPreRaisedAborts(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var flag atomic.Bool
		flag.Store(true)
		_, err := CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, 1,
			Options{Workers: workers, Cancel: &flag})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: got err %v, want ErrCanceled", workers, err)
		}
	}
}

// A flag raised while two workers run the frontier aborts it with
// ErrCanceled after some patterns were merged, never with a partial
// verdict. A run can finish before the flag lands, so the test retries
// until one is cut mid-frontier.
func TestCancelMidFrontierAborts(t *testing.T) {
	in, err := workload.RandomInstance(rand.New(rand.NewSource(6012)), 60, 12, true, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 220 // C(12, 3)
	for attempt := 0; attempt < 20; attempt++ {
		sink := obs.NewSink()
		checked := sink.Counter("certify.patterns.checked")
		var flag, finished atomic.Bool
		raised := make(chan struct{})
		go func() {
			defer close(raised)
			for checked.Value() == 0 && !finished.Load() {
				runtime.Gosched()
			}
			flag.Store(true)
		}()
		v, err := CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, 3,
			Options{Workers: 2, Cancel: &flag, Obs: sink})
		finished.Store(true)
		<-raised
		n := checked.Value()
		if err == nil || n == patterns {
			continue // the flag landed after the last pattern was handed out
		}
		if !errors.Is(err, ErrCanceled) || v != nil {
			t.Fatalf("got verdict %v, err %v after %d patterns, want ErrCanceled", v, err, n)
		}
		if n == 0 {
			t.Fatal("canceled before any frontier pattern was merged")
		}
		return
	}
	t.Fatal("no run was canceled mid-frontier in 20 attempts")
}

// An attached-but-never-raised flag must not change the verdict on either
// engine path.
func TestCancelUnraisedIsIdentical(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Certify(res.Schedule, in.Graph, in.Arch, in.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var flag atomic.Bool
		flagged, err := CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, 1,
			Options{Workers: workers, Cancel: &flag})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, flagged) {
			t.Fatalf("workers=%d: verdict changed when a cancel flag was attached:\n%+v\nvs\n%+v",
				workers, plain, flagged)
		}
	}
}
