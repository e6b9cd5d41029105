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
	wantReplicas := map[string][]*OpSlot{}
	for _, op := range []string{"A", "B", "missing"} {
		wantReplicas[op] = want.Replicas(op)
	}

	s := validBasic(f)
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers*16)
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
			for op, w := range wantReplicas {
				if got := s.Replicas(op); !reflect.DeepEqual(got, w) {
					errs <- "Replicas(" + op + ")"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent %s differs from the single-reader view", e)
	}
}

// TestReplicasMemoDroppedOnAddOpSlot pins the invalidation of the by-op
// replica index: a replica added after a Replicas call shows up in the
// next one, in rank order, and the returned slices cannot be appended into
// the memo.
func TestReplicasMemoDroppedOnAddOpSlot(t *testing.T) {
	s := validBasic(newFixture(t))
	before := s.Replicas("A")
	if len(before) != 1 || before[0].Proc != "P1" {
		t.Fatalf("Replicas(A) = %v, want the P1 replica", before)
	}
	if cap(before) != len(before) {
		t.Errorf("Replicas(A) has spare capacity %d: an append would write into the memo", cap(before))
	}
	s.AddOpSlot(OpSlot{Op: "A", Proc: "P2", Replica: 1, Start: 0, End: 1})
	after := s.Replicas("A")
	if len(after) != 2 || after[0].Proc != "P1" || after[1].Proc != "P2" || after[1].Replica != 1 {
		t.Fatalf("Replicas(A) after AddOpSlot = %v, want P1 then the new P2 backup", after)
	}
	if got := s.Replicas("B"); len(got) != 1 || got[0].Proc != "P2" {
		t.Errorf("Replicas(B) = %v, want the P2 replica", got)
	}
}
