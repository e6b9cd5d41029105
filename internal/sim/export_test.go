package sim

// CandidateSlots reports m's FT1 chain count and the length of the
// Runner's next-action slot array (scheduled processors, links, chains).
func CandidateSlots(m *Model) (chains, slots int) { return len(m.chains), int(m.nSlots) }
