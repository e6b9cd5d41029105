// Package pressure is the epochpurity fixture for receiver-constrained
// roots: only Table.Sigma is an evaluation-phase entry point, so the same
// mutation under a Sparse receiver stays legal.
package pressure

type table struct {
	mutEpoch int
	cells    []int
}

// Table is the root-bearing receiver type.
type Table struct {
	tab table
}

// Sigma is the dense read path: reachable writes are violations.
func (t *Table) Sigma(i int) int {
	t.warm(i)
	return t.tab.cells[i]
}

func (t *Table) warm(i int) {
	t.tab.cells[i] = 0 // want "evaluation path from \\(\\*Table\\).Sigma reaches a mutation of epoch-guarded state: writes table.cells via \\(\\*Table\\).warm"
}

// Sparse carries no root: its Sigma may mutate freely.
type Sparse struct {
	tab table
}

// Sigma on the sparse table is not an evaluation root.
func (s *Sparse) Sigma(i int) int {
	s.tab.cells[i]++
	return s.tab.cells[i]
}
