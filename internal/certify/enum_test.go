package certify

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// materializedSubsets is the recursive enumerator the streaming patternEnum
// replaced, kept verbatim as the reference: the new enumerator must yield the
// same subsets in the same lexicographic order, because the frontier's
// first-wins tie-breaks and the counterexample choice both hang off that
// order.
func materializedSubsets(procs []string, k int) [][]string {
	var out [][]string
	cur := make([]string, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i <= len(procs)-(k-len(cur)); i++ {
			cur = append(cur, procs[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// TestPatternEnumMatchesMaterialized drains the streaming enumerator for
// every (n, k) up to n=8 and checks count and order against the reference.
func TestPatternEnumMatchesMaterialized(t *testing.T) {
	for n := 0; n <= 8; n++ {
		procs := make([]string, n)
		for i := range procs {
			procs[i] = fmt.Sprintf("P%02d", i)
		}
		for k := 0; k <= n+1; k++ {
			want := materializedSubsets(procs, k)
			enum := newPatternEnum(n, k)
			var got [][]string
			for sub := enum.next(); sub != nil; sub = enum.next() {
				names := make([]string, len(sub))
				for i, p := range sub {
					names[i] = procs[p]
				}
				got = append(got, names)
			}
			if k > n {
				if len(got) != 0 {
					t.Errorf("n=%d k=%d: enumerated %d subsets, want none", n, k, len(got))
				}
				continue
			}
			if len(got) != binomial(n, k) {
				t.Errorf("n=%d k=%d: enumerated %d subsets, want C(n,k)=%d", n, k, len(got), binomial(n, k))
			}
			// Compare rendered patterns: DeepEqual would distinguish the
			// reference's nil empty subset from the enumerator's non-nil one.
			for i := range want {
				if i >= len(got) || fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Errorf("n=%d k=%d: enumeration order diverged at %d:\n got %v\nwant %v", n, k, i, got, want)
					break
				}
			}
		}
	}
}

// TestPatternEnumReturnsFreshSlices pins that next() never aliases its
// internal state: the pool hands subsets to concurrent workers.
func TestPatternEnumReturnsFreshSlices(t *testing.T) {
	enum := newPatternEnum(3, 2)
	first := enum.next()
	snapshot := append([]int32(nil), first...)
	enum.next()
	enum.next()
	if !reflect.DeepEqual(first, snapshot) {
		t.Errorf("next() mutated a previously returned subset: %v, was %v", first, snapshot)
	}
}

// TestBinomialSaturates is the overflow regression test: the pre-saturation
// binomial wrapped to garbage (often negative) on wide architectures, which
// PatternsImplied then reported as a certificate covering a negative number
// of patterns.
func TestBinomialSaturates(t *testing.T) {
	exact := []struct{ n, k, want int }{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {61, 30, 232714176627630544},
		{4, 5, 0}, {3, -1, 0},
	}
	for _, c := range exact {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	saturated := []struct{ n, k int }{
		{63, 31},      // exact value fits, but an intermediate product does not: conservative saturation
		{128, 64},     // genuinely past MaxInt: the old code wrapped through negative here
		{1 << 40, 2},  // the multiply n*(n-1) alone overflows
		{1 << 40, 20}, // deep loop over a huge n
	}
	for _, c := range saturated {
		if got := binomial(c.n, c.k); got != math.MaxInt {
			t.Errorf("binomial(%d, %d) = %d, want saturation at MaxInt", c.n, c.k, got)
		}
		if got := binomial(c.n, c.k); got < 0 {
			t.Errorf("binomial(%d, %d) went negative: %d", c.n, c.k, got)
		}
	}
	// Symmetry: the k > n-k reduction must not change small results.
	if binomial(10, 7) != binomial(10, 3) {
		t.Errorf("binomial symmetry broken: C(10,7)=%d C(10,3)=%d", binomial(10, 7), binomial(10, 3))
	}
}

// TestAddSat pins the saturating accumulator PatternsImplied sums with.
func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxInt, 0, math.MaxInt},
		{math.MaxInt, 1, math.MaxInt},
		{math.MaxInt - 5, 5, math.MaxInt},
		{math.MaxInt - 5, 6, math.MaxInt},
		{math.MaxInt, math.MaxInt, math.MaxInt},
	}
	for _, c := range cases {
		if got := addSat(c.a, c.b); got != c.want {
			t.Errorf("addSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
