package certify

// patternEnum streams the size-k subsets of the processor IDs 0..n-1 in
// deterministic lexicographic order without materializing the C(n, k)
// patterns up front. For k == 0 it yields a single empty subset.
type patternEnum struct {
	n       int
	idx     []int32 // current combination
	k       int
	started bool
	done    bool
}

// newPatternEnum returns an enumerator over the size-k subsets of 0..n-1.
// k larger than n enumerates nothing.
func newPatternEnum(n, k int) *patternEnum {
	e := &patternEnum{n: n, k: k}
	if k < 0 || k > n {
		e.done = true
	}
	return e
}

// next returns the next subset as a fresh slice, or nil when the enumeration
// is exhausted.
func (e *patternEnum) next() []int32 {
	if e.done {
		return nil
	}
	if !e.started {
		e.started = true
		e.idx = make([]int32, e.k)
		for i := range e.idx {
			e.idx[i] = int32(i)
		}
	} else {
		// Advance the rightmost index that still has room, then reset the
		// tail to the run immediately after it — the textbook successor in
		// lexicographic combination order.
		i := e.k - 1
		for i >= 0 && int(e.idx[i]) == e.n-(e.k-i) {
			i--
		}
		if i < 0 {
			e.done = true
			return nil
		}
		e.idx[i]++
		for j := i + 1; j < e.k; j++ {
			e.idx[j] = e.idx[j-1] + 1
		}
	}
	out := append(make([]int32, 0, e.k), e.idx...)
	if e.k == 0 {
		e.done = true
	}
	return out
}
