package sim

// bitset is a set of candidate slots, one bit per slot, 64 to a word.
type bitset []uint64

// newBitset returns an empty set sized for n slots.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(k int32)   { b[k>>6] |= 1 << (k & 63) }
func (b bitset) unset(k int32) { b[k>>6] &^= 1 << (k & 63) }

// fill sets every slot of a set sized for n slots.
func (b bitset) fill(n int) {
	for w := range b {
		b[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[len(b)-1] = 1<<r - 1
	}
}
