package core

import (
	"math"

	"ftsched/internal/sched"
)

// opRec is one scheduled operation replica in the arena: the dense mirror of
// sched.OpSlot. Records are appended in commit order and never removed;
// st.reps and st.repOn address them by arena index.
type opRec struct {
	start, end float64
	op         int32
	proc       int32
	replica    int32
}

// commRec is one communication hop in the arena: the dense mirror of
// sched.CommSlot. to and dst are -1 where the slot has no hop destination or
// final destination (bus broadcasts), matching the empty strings of the
// materialized slot.
type commRec struct {
	start, end, timeout float64
	edge                int32
	link                int32
	from, to            int32
	src, dst            int32
	rank                int32
	transferID          int32
	hop                 int32
	passive             bool
	broadcast           bool
}

// schedState is the structure-of-arrays schedule under construction: flat
// arenas for the committed op and comm slots plus dense lookup tables for
// everything the old builder kept in string-keyed maps (processor frontiers,
// link occupancy, replica sets, committed deliveries/sends/broadcasts,
// passive-chain completion). Absent float entries are NaN — schedule dates
// are always finite, so NaN is a free sentinel and the presence test is one
// IsNaN instead of a map probe.
//
// Concurrency discipline (the copy-on-write contract of DESIGN.md §13):
// evaluations — including the parallel worker pool — read this state but
// never write it; their tentative results live in the builder's per-step
// evaluation buffers and route-memo entries. Every mutating method bumps
// mutEpoch, and the builder asserts the epoch is unchanged across each
// evaluation batch, so a write sneaking into the read-only phase is caught
// as a hard error instead of a silent race.
type schedState struct {
	nProcs, nLinks int32

	ops   []opRec
	comms []commRec

	// procFree[proc] is the processor's frontier: the end of its last slot.
	procFree []float64
	// linkBusy[link] is the link's sorted active-transfer occupancy with its
	// block-indexed gap accelerator.
	linkBusy []occupancy

	// reps[op] lists op's replicas as arena indices in rank order; the
	// chunks are carved out of repsArena (one allocation for the whole run).
	reps      [][]int32
	repsArena []int32
	// repOn[op*nProcs+proc] is the arena index of op's replica on proc, -1
	// when none.
	repOn []int32

	// deliv[edge*nProcs+proc] is the committed point-to-point delivery date
	// of edge's value on proc (Basic and FT1); NaN = not delivered.
	deliv []float64
	// sent[(edge*nProcs+src)*nProcs+dst] is the committed FT2 transfer
	// arrival from a sender processor to a destination; NaN = not sent.
	sent []float64
	// bcastEnd[edge*nLinks+bus] is the end date of the committed FT1 bus
	// broadcast; NaN = not broadcast.
	bcastEnd []float64
	// passBus[edge*nLinks+bus] / passDst[edge*nProcs+dst] record that the
	// FT1 passive backup chain for the edge has been committed on that bus /
	// toward that destination.
	passBus []bool
	passDst []bool

	nextTransfer int32
	mutEpoch     uint64
}

// newSchedState allocates the arenas and tables for a run of the given mode.
// Mode-specific tables (deliv, sent, bcastEnd, passive markers) are only
// allocated where the mode's communication scheme uses them.
func newSchedState(m *model, mode sched.Mode, k int) *schedState {
	repl := k + 1
	st := &schedState{
		nProcs:    m.nProcs,
		nLinks:    m.nLinks,
		ops:       make([]opRec, 0, int(m.nOps)*repl),
		procFree:  make([]float64, m.nProcs),
		linkBusy:  make([]occupancy, m.nLinks),
		reps:      make([][]int32, m.nOps),
		repsArena: make([]int32, 0, int(m.nOps)*repl),
		repOn:     make([]int32, int(m.nOps)*int(m.nProcs)),
	}
	for i := range st.repOn {
		st.repOn[i] = -1
	}
	nanFill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	}
	switch mode {
	case sched.ModeBasic:
		st.deliv = nanFill(int(m.nEdges) * int(m.nProcs))
	case sched.ModeFT1:
		st.deliv = nanFill(int(m.nEdges) * int(m.nProcs))
		st.bcastEnd = nanFill(int(m.nEdges) * int(m.nLinks))
		st.passBus = make([]bool, int(m.nEdges)*int(m.nLinks))
		st.passDst = make([]bool, int(m.nEdges)*int(m.nProcs))
	case sched.ModeFT2:
		st.sent = nanFill(int(m.nEdges) * int(m.nProcs) * int(m.nProcs))
	}
	return st
}

// appendOp commits one operation replica and returns its arena index.
func (st *schedState) appendOp(r opRec) int32 {
	st.mutEpoch++
	st.ops = append(st.ops, r)
	return int32(len(st.ops) - 1)
}

// appendComm commits one communication hop.
func (st *schedState) appendComm(r commRec) {
	st.mutEpoch++
	st.comms = append(st.comms, r)
}

// newTransferID allocates a fresh transfer identifier, in the same sequence
// the materialized schedule will expose.
func (st *schedState) newTransferID() int32 {
	st.mutEpoch++
	id := st.nextTransfer
	st.nextTransfer++
	return id
}

// occupy records an active transfer on link.
func (st *schedState) occupy(link int32, start, end float64) {
	st.mutEpoch++
	st.linkBusy[link].insert(start, end)
}

// claimReps carves op's replica chunk (n arena indices, filled by the commit
// loop) out of the shared arena and installs it as st.reps[op].
func (st *schedState) claimReps(op int32, n int) []int32 {
	st.mutEpoch++
	off := len(st.repsArena)
	for i := 0; i < n; i++ {
		st.repsArena = append(st.repsArena, -1)
	}
	chunk := st.repsArena[off : off+n : off+n]
	st.reps[op] = chunk
	return chunk
}

// setDeliv records the committed delivery date of edge e's value on proc.
func (st *schedState) setDeliv(e, proc int32, t float64) {
	st.mutEpoch++
	st.deliv[e*st.nProcs+proc] = t
}

// setSent records the committed FT2 arrival of e from src to dst.
func (st *schedState) setSent(e, src, dst int32, t float64) {
	st.mutEpoch++
	st.sent[(e*st.nProcs+src)*st.nProcs+dst] = t
}

// setBcast records the end date of the committed FT1 broadcast of e on bus.
func (st *schedState) setBcast(e, bus int32, t float64) {
	st.mutEpoch++
	st.bcastEnd[e*st.nLinks+bus] = t
}

// markPassBus records that e's passive chain on bus has been committed.
func (st *schedState) markPassBus(e, bus int32) {
	st.mutEpoch++
	st.passBus[e*st.nLinks+bus] = true
}

// markPassDst records that e's point-to-point passive chain toward dst has
// been committed.
func (st *schedState) markPassDst(e, dst int32) {
	st.mutEpoch++
	st.passDst[e*st.nProcs+dst] = true
}
