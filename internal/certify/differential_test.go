package certify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/workload"
)

// workerCounts is the pool matrix the differential tests sweep: the
// sequential frontier and two pool sizes. Every count must produce a verdict
// deeply equal to the test-only reference, which evaluates every failure
// set from scratch — that is the contract Options documents.
var workerCounts = []int{1, 2, 4}

// assertMatchesReference certifies one schedule at every worker count and
// fails unless each verdict — including WorstPattern, the steady bound, and
// the shrunk counterexample — is deeply equal to the reference.
func assertMatchesReference(t *testing.T, label string, in *workload.Instance, res *core.Result, k int) *certify.Verdict {
	t.Helper()
	ref, err := certify.RefCertify(res.Schedule, in.Graph, in.Arch, in.Spec, k)
	if err != nil {
		t.Fatalf("%s: RefCertify: %v", label, err)
	}
	for _, w := range workerCounts {
		v, err := certify.CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, k, certify.Options{Workers: w})
		if err != nil {
			t.Fatalf("%s: CertifyWith(workers=%d): %v", label, w, err)
		}
		if !reflect.DeepEqual(v, ref) {
			t.Errorf("%s: workers=%d verdict diverged from the reference:\n got %+v\nwant %+v",
				label, w, v, ref)
		}
	}
	return ref
}

// TestCertifyDifferential sweeps random bus and point-to-point workloads
// through every worker count. Both certification outcomes must be
// exercised: accepted schedules pin WorstBound/WorstPattern equality, and
// rejected ones (certifying beyond the schedule's K) pin that the parallel
// merge and the incremental shrink reach the exact same minimal
// counterexample as the reference.
func TestCertifyDifferential(t *testing.T) {
	accepted, rejected := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		for _, bus := range []bool{true, false} {
			r := rand.New(rand.NewSource(seed))
			in, err := workload.RandomInstance(r, 12, 4, bus, 0.8)
			if err != nil {
				t.Fatalf("seed %d: RandomInstance: %v", seed, err)
			}
			h := core.FT1
			if !bus {
				h = core.FT2
			}
			res, err := core.Schedule(h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
			if err != nil {
				continue // infeasible draw: nothing to compare
			}
			for k := 1; k <= 2; k++ {
				label := fmt.Sprintf("seed=%d bus=%v k=%d", seed, bus, k)
				v := assertMatchesReference(t, label, in, res, k)
				if v.Certified {
					accepted++
				} else {
					rejected++
					if v.Counterexample == nil {
						t.Errorf("%s: rejected without a counterexample", label)
					}
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("differential test exercised only one side: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestCertifyDifferentialWideFrontier pushes a larger frontier (C(8,2)=28 and
// C(8,3)=56 patterns) through the pool so out-of-order completion, the reorder
// buffer, and cooperative cancellation all actually trigger under -race.
func TestCertifyDifferentialWideFrontier(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in, err := workload.RandomInstance(r, 24, 8, true, 0.8)
	if err != nil {
		t.Fatalf("RandomInstance: %v", err)
	}
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 2, core.Options{})
	if err != nil {
		t.Skipf("draw infeasible at K=2: %v", err)
	}
	for k := 2; k <= 3; k++ {
		assertMatchesReference(t, fmt.Sprintf("wide k=%d", k), in, res, k)
	}
}

// FuzzCertifyDifferential fuzzes the engine equivalence: any instance shape
// the generator accepts must produce deeply equal verdicts from the
// reference and the pooled engine.
func FuzzCertifyDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), true, uint8(1))
	f.Add(int64(2), uint8(14), uint8(4), false, uint8(2))
	f.Add(int64(7), uint8(9), uint8(5), true, uint8(2))
	f.Add(int64(11), uint8(16), uint8(4), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, ops, procs uint8, bus bool, k uint8) {
		nOps := 4 + int(ops)%17    // 4..20 operations
		nProcs := 2 + int(procs)%5 // 2..6 processors
		tol := 1 + int(k)%3        // certify K in 1..3
		in, err := workload.RandomInstance(rand.New(rand.NewSource(seed)), nOps, nProcs, bus, 0.8)
		if err != nil {
			t.Skip()
		}
		res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, 1, core.Options{})
		if err != nil {
			t.Skip()
		}
		ref, err := certify.RefCertify(res.Schedule, in.Graph, in.Arch, in.Spec, tol)
		if err != nil {
			t.Fatalf("RefCertify: %v", err)
		}
		got, err := certify.CertifyWith(res.Schedule, in.Graph, in.Arch, in.Spec, tol, certify.Options{Workers: 3})
		if err != nil {
			t.Fatalf("CertifyWith(workers=3): %v", err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("pooled verdict diverged from the reference:\n got %+v\nwant %+v", got, ref)
		}
	})
}
