package sched

import (
	"reflect"
	"sync"
	"testing"
)

// TestAccessorMemosConcurrentReaders calls every memoizing accessor from
// several goroutines on a fresh schedule, so the first calls race to fill
// the memos. Run with -race; every goroutine must also see the same views
// a single reader sees.
func TestAccessorMemosConcurrentReaders(t *testing.T) {
	f := newFixture(t)
	want := validBasic(f)
	wantProcSlots := map[string][]*OpSlot{}
	for _, p := range want.Procs() {
		wantProcSlots[p] = want.ProcSlots(p)
	}
	wantLinkSlots := map[string][]*CommSlot{}
	for _, l := range want.Links() {
		wantLinkSlots[l] = want.LinkSlots(l)
	}
	wantTransfers := want.Transfers()

	s := validBasic(f)
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers*5)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Procs(); !reflect.DeepEqual(got, want.Procs()) {
				errs <- "Procs"
			}
			if got := s.Links(); !reflect.DeepEqual(got, want.Links()) {
				errs <- "Links"
			}
			for p, w := range wantProcSlots {
				if got := s.ProcSlots(p); !reflect.DeepEqual(got, w) {
					errs <- "ProcSlots(" + p + ")"
				}
			}
			for l, w := range wantLinkSlots {
				if got := s.LinkSlots(l); !reflect.DeepEqual(got, w) {
					errs <- "LinkSlots(" + l + ")"
				}
			}
			if got := s.Transfers(); !reflect.DeepEqual(got, wantTransfers) {
				errs <- "Transfers"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent %s differs from the single-reader view", e)
	}
}
