package core

import (
	"math"
	"sort"
)

// occBlock is the block width of the occupancy gap index. 64 keeps the
// per-block metadata a single cache line's worth of float64s per ~6 cache
// lines of intervals and makes the boundary test a cheap mask.
const occBlock = 64

// occupancy is one link's busy list plus the acceleration metadata for gap
// searches. The busy list is identical to the plain []interval the reference
// earliestGap scans; on top of it the index keeps, per block of occBlock
// consecutive intervals, the largest internal gap (busy[j].start −
// busy[j−1].end for j inside the block), so a search can skip whole blocks
// that provably contain no window of the requested size.
//
// The fast path is only sound while the list is clean: pairwise
// non-overlapping with non-decreasing end dates. Every insert preserves
// cleanliness in the normal case, but the eps-tolerant gap fit can commit a
// transfer overlapping its successor by up to eps; the first such insert
// sets unclean and the link permanently falls back to the reference scan,
// keeping results bit-identical instead of almost-right.
//
// When logged is set (the builder's route memo is on), log lists every
// inserted interval in insertion order, for keeps.
type occupancy struct {
	busy     []interval
	blockMax []float64
	log      []interval
	logged   bool
	unclean  bool
}

// insert adds [start,end) keeping the list sorted by start, and maintains
// the block index and the insert log. Position choice matches
// insertInterval exactly.
func (o *occupancy) insert(start, end float64) {
	if o.logged {
		o.log = append(o.log, interval{start: start, end: end})
	}
	p := insertPos(o.busy, start, end)
	o.busy = insertInterval(o.busy, start, end)
	if !o.unclean {
		if (p > 0 && o.busy[p-1].end > start) || (p+1 < len(o.busy) && end > o.busy[p+1].start) {
			o.unclean = true
			o.blockMax = nil
			return
		}
		o.rebuildBlocksFrom(p)
	}
}

// keeps reports whether search(ready, dur), which returned val when the
// insert log held pos intervals, still returns val. That holds while the
// list is clean and every interval inserted since either ends by ready, so
// the search never reaches it, or starts at or after val with the window
// [val, val+dur) still fitting before it under the search's own fit test.
// The gaps the search rejected before val are then untouched and the gap
// it accepted still fits (DESIGN.md §8.3).
func (o *occupancy) keeps(pos int32, ready, dur, val float64) bool {
	if o.unclean {
		return false
	}
	for _, iv := range o.log[pos:] {
		if iv.end > ready && (iv.start < val || iv.start-val < dur-eps) {
			return false
		}
	}
	return true
}

// rebuildBlocksFrom recomputes the per-block max internal gap for every
// block at or after the one containing gap index p (all gap indices >= p
// shifted when the interval was inserted there).
func (o *occupancy) rebuildBlocksFrom(p int) {
	n := len(o.busy)
	nb := (n + occBlock - 1) / occBlock
	for len(o.blockMax) < nb {
		o.blockMax = append(o.blockMax, 0)
	}
	o.blockMax = o.blockMax[:nb]
	for b := p / occBlock; b < nb; b++ {
		m := math.Inf(-1)
		lo := b * occBlock
		if lo == 0 {
			lo = 1 // gap j is between intervals j-1 and j, so indices start at 1
		}
		hi := (b + 1) * occBlock
		if hi > n {
			hi = n
		}
		for j := lo; j < hi; j++ {
			if g := o.busy[j].start - o.busy[j-1].end; g > m {
				m = g
			}
		}
		o.blockMax[b] = m
	}
}

// search returns the earliest date >= ready at which a transfer of duration
// dur fits, with results bit-identical to earliestGap(o.busy, ready, dur).
//
// On a clean list the reference scan simplifies exactly: the first interval
// to consider is the first whose end exceeds ready (binary search is valid,
// ends are sorted, and the reference's inversion backup loop provably does
// nothing); from there the running frontier t is always the previous
// interval's end (every end past that point exceeds ready), so the window
// test between consecutive intervals j-1, j is busy[j].start − busy[j-1].end
// >= dur − eps — precisely the quantity the block index bounds. Blocks whose
// max internal gap is below the threshold are skipped whole, turning the
// packed-link worst case (hundreds of too-small gaps before the tail) from a
// full walk into a handful of block probes.
func (o *occupancy) search(ready, dur float64) float64 {
	if o.unclean {
		return earliestGap(o.busy, ready, dur)
	}
	busy := o.busy
	n := len(busy)
	i := sort.Search(n, func(i int) bool { return busy[i].end > ready }) //ftlint:hotalloc-ok non-escaping: sort.Search invokes the predicate without retaining it
	if i == n {
		return ready
	}
	need := dur - eps
	if busy[i].start-ready >= need {
		return ready
	}
	for j := i + 1; j < n; {
		if j%occBlock == 0 && o.blockMax[j/occBlock] < need {
			j += occBlock
			continue
		}
		if busy[j].start-busy[j-1].end >= need {
			return busy[j-1].end
		}
		j++
	}
	return busy[n-1].end
}
