package core

import (
	"fmt"
	"testing"
)

// packedBusy builds a busy list of n back-to-back transfers with gaps too
// small for a unit-duration request: the worst case for the linear reference
// scan, which must walk every gap before concluding only the tail fits. This
// is the shape a saturated bus link takes in the 400x8 FT1 benchmark, where
// earliestGap dominated the profile before the block index landed.
func packedBusy(n int) []interval {
	busy := make([]interval, n)
	t := 0.0
	for i := range busy {
		busy[i] = interval{t, t + 1}
		t += 1.5 // 0.5-wide gaps: visible, but below the unit duration
	}
	return busy
}

// BenchmarkEarliestGapPacked measures one gap search over a packed link,
// reference scan versus the block-indexed occupancy, at the list sizes a
// saturated bus reaches mid-run.
func BenchmarkEarliestGapPacked(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		busy := packedBusy(n)
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := earliestGap(busy, 0, 1); got != busy[n-1].end {
					b.Fatalf("gap at %v, want tail %v", got, busy[n-1].end)
				}
			}
		})
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			var occ occupancy
			for _, iv := range busy {
				occ.insert(iv.start, iv.end)
			}
			if occ.unclean {
				b.Fatal("packed list should stay clean")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := occ.search(0, 1); got != busy[n-1].end {
					b.Fatalf("gap at %v, want tail %v", got, busy[n-1].end)
				}
			}
		})
	}
}

// BenchmarkInsertIntervalFrontShift measures the O(n) memmove worst case: an
// insert landing at the front of an n-interval list shifts every element. The
// slice is re-primed each iteration by copying a template, so the measured
// cost is one copy plus one front insert at steady length.
func BenchmarkInsertIntervalFrontShift(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			template := packedBusy(n)
			for i := range template {
				template[i].start += 10 // leave room at the front
				template[i].end += 10
			}
			scratch := make([]interval, n, n+1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, template)
				busy := insertInterval(scratch[:n], 0, 1)
				if busy[0].start != 0 {
					b.Fatal("front insert did not land first")
				}
			}
		})
	}
}

// BenchmarkOccupancyInsertAppend measures the common case the scheduler hits
// on every commit: appending at the tail of a growing busy list, including
// the incremental block-index maintenance.
func BenchmarkOccupancyInsertAppend(b *testing.B) {
	const n = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var occ occupancy
		t := 0.0
		for j := 0; j < n; j++ {
			occ.insert(t, t+1)
			t += 1.5
		}
	}
}
