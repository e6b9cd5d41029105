package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refFold is the legacy scan over every slot: skip the non-executable ones,
// keep the first start more than eps below the best so far.
func refFold(ok []bool, at []float64, link []int32, linkFree []float64) (int32, float64) {
	best, bestStart := int32(-1), math.Inf(1)
	for k := range ok {
		if !ok[k] {
			continue
		}
		if start := max(at[k], linkFree[link[k]]); start < bestStart-eps {
			best, bestStart = int32(k), start
		}
	}
	return best, bestStart
}

// TestFoldLiveWordBoundaries checks the live-set walk at slot counts on
// both sides of a word boundary against the fold over every slot. Dates
// sit on a coarse grid nudged by fractions of eps, so ties inside and just
// outside eps both occur; the first link entry is the processors' -Inf.
func TestFoldLiveWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if got := len(newBitset(n)); got != (n+63)/64 {
				t.Fatalf("newBitset(%d) has %d words", n, got)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			linkFree := []float64{math.Inf(-1), 0, 1.5, 3}
			at := make([]float64, n)
			link := make([]int32, n)
			ok := make([]bool, n)
			live := newBitset(n)
			for trial := 0; trial < 2000; trial++ {
				for k := range at {
					at[k] = float64(rng.Intn(8))*0.5 + float64(rng.Intn(5)-2)*eps*0.75
					link[k] = int32(rng.Intn(len(linkFree)))
				}
				// Sparse, dense and single-slot live sets, the single slot
				// often at either end of a word.
				live.fill(n)
				switch mode := trial % 3; mode {
				case 0, 1:
					p := 0.1 + 0.8*float64(mode)
					for k := range ok {
						ok[k] = rng.Float64() < p
						if !ok[k] {
							live.unset(int32(k))
						}
					}
				default:
					clear(live)
					one := []int{0, 62, 63, 64, n - 1, rng.Intn(n)}[rng.Intn(6)] % n
					for k := range ok {
						ok[k] = k == one
					}
					live.set(int32(one))
				}
				count := 0
				for _, w := range live {
					count += bits.OnesCount64(w)
				}
				want := 0
				for _, o := range ok {
					if o {
						want++
					}
				}
				if count != want {
					t.Fatalf("trial %d: live holds %d slots, want %d", trial, count, want)
				}
				gotK, gotStart := foldLive(live, at, link, linkFree)
				wantK, wantStart := refFold(ok, at, link, linkFree)
				if gotK != wantK || gotStart != wantStart {
					t.Fatalf("trial %d: foldLive = (%d, %v), full fold = (%d, %v)", trial, gotK, gotStart, wantK, wantStart)
				}
			}
		})
	}
}
