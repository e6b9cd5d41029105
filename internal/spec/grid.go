package spec

import (
	"maps"
	"math"
	"slices"
)

// axis numbers the row or the column names of a table in order of first
// use.
type axis[K comparable] struct {
	names []K
	id    map[K]int32
}

// index returns the number of k, or -1.
func (x *axis[K]) index(k K) int32 {
	if i, ok := x.id[k]; ok {
		return i
	}
	return -1
}

// intern returns the number of k, numbering it first if it is new.
func (x *axis[K]) intern(k K) (i int32, added bool) {
	if i, ok := x.id[k]; ok {
		return i, false
	}
	if x.id == nil {
		x.id = make(map[K]int32)
	}
	i = int32(len(x.names))
	x.id[k] = i
	x.names = appendDoubling(x.names, k)
	return i, true
}

// appendDoubling appends v to s, doubling a full slice's capacity where
// append grows a large one by about a quarter: a table grows one row or
// name at a time to thousands, and the quarter steps would allocate about
// five times its final size.
func appendDoubling[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, max(2*cap(s), 8)), s...)
	}
	return append(s, v)
}

// reserve makes room for n names.
func (x *axis[K]) reserve(n int) {
	if n <= cap(x.names) {
		return
	}
	x.names = append(make([]K, 0, n), x.names...)
	id := make(map[K]int32, n)
	for k, i := range x.id {
		id[k] = i
	}
	x.id = id
}

func (x *axis[K]) clone() axis[K] {
	return axis[K]{names: slices.Clone(x.names), id: maps.Clone(x.id)}
}

// denseMinCells is the size up to which a table stays dense however empty
// it is; past it, a dense table holds at most denseRatio cells per entry.
const (
	denseMinCells = 1 << 16
	denseRatio    = 8
)

// table is one duration table: its rows and columns numbered in order of
// first use, and a row-major matrix of their cells in which NaN marks an
// absent entry (SetExec and SetComm reject NaN as a duration). A row's
// cells are read in column order, so a sum over a row is the same on
// every call.
//
// A problem's tables are dense: a valid spec costs every dependency on
// every link. A table naming far more rows and columns than it has
// entries, which only a sparse or crafted document does, moves its cells
// into a map once the matrix would exceed denseRatio cells per entry, so
// its memory stays proportional to its entries.
type table[R comparable] struct {
	rows   axis[R]
	cols   axis[string]
	stride int       // row length in vals, at least len(cols.names)
	vals   []float64 // len(rows.names)*stride cells; nil once sparse
	n      int       // cells holding a duration

	// The row of the previous set, plus one, and the column after its
	// column.
	prevRow, nextCol int32

	// Once the table is sparse: its cells, and each row's columns in the
	// order they were first set.
	sparse  map[[2]int32]float64
	rowCols [][]int32
}

// set records v in cell (row, col), numbering a new row or column. A
// later set of the same cell overwrites it.
func (t *table[R]) set(row R, col string, v float64) {
	// Documents list a row's cells together and its columns in the order
	// of the row before, so the previous row and the column after the
	// previous one are tried before the maps.
	r := t.prevRow - 1
	if r < 0 || t.rows.names[r] != row {
		r, _ = t.rows.intern(row)
		t.prevRow = r + 1
	}
	c := t.nextCol
	if int(c) >= len(t.cols.names) || t.cols.names[c] != col {
		c, _ = t.cols.intern(col)
	}
	t.nextCol = c + 1

	stride := t.stride
	if int(c) >= stride {
		// Widening a lone row costs nothing: size it exactly.
		stride = int(c) + 1
		if len(t.rows.names) > 1 {
			stride = max(2*t.stride, stride)
		}
	}
	if t.sparse == nil && len(t.rows.names)*stride > max(denseMinCells, denseRatio*(t.n+1)) {
		t.toSparse()
	}
	if t.sparse != nil {
		k := [2]int32{r, c}
		if _, ok := t.sparse[k]; !ok {
			for int(r) >= len(t.rowCols) {
				t.rowCols = append(t.rowCols, nil)
			}
			t.rowCols[r] = append(t.rowCols[r], c)
			t.n++
		}
		t.sparse[k] = v
		return
	}
	if stride != t.stride {
		t.restride(stride)
	}
	if need := len(t.rows.names) * t.stride; len(t.vals) < need {
		for len(t.vals) < need {
			t.vals = appendDoubling(t.vals, math.NaN())
		}
	}
	i := int(r)*t.stride + int(c)
	if math.IsNaN(t.vals[i]) {
		t.n++
	}
	t.vals[i] = v
}

// reserve makes room for the given number of rows of the current width.
func (t *table[R]) reserve(rows int) {
	if t.sparse != nil || rows <= cap(t.rows.names) {
		return
	}
	t.rows.reserve(rows)
	if n := rows * t.stride; n > cap(t.vals) {
		t.vals = append(make([]float64, 0, n), t.vals...)
	}
}

// restride widens every row of the matrix to stride cells.
func (t *table[R]) restride(stride int) {
	rows := 0
	if t.stride > 0 {
		rows = len(t.vals) / t.stride
	}
	if rows <= 1 {
		t.stride = stride // a lone row just grows at its end
		return
	}
	vals := make([]float64, rows*stride)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for r := 0; r < rows; r++ {
		copy(vals[r*stride:], t.vals[r*t.stride:(r+1)*t.stride])
	}
	t.vals, t.stride = vals, stride
}

// toSparse moves the matrix's cells into the map.
func (t *table[R]) toSparse() {
	t.sparse = make(map[[2]int32]float64, t.n)
	t.rowCols = make([][]int32, len(t.rows.names))
	for i, v := range t.vals {
		if !math.IsNaN(v) {
			r, c := int32(i/t.stride), int32(i%t.stride)
			t.sparse[[2]int32{r, c}] = v
			t.rowCols[r] = append(t.rowCols[r], c)
		}
	}
	t.vals = nil
}

// get returns cell (r, c) of a numbered row and column, and whether it
// holds a duration.
func (t *table[R]) get(r, c int32) (float64, bool) {
	if t.sparse != nil {
		v, ok := t.sparse[[2]int32{r, c}]
		return v, ok
	}
	v := t.vals[int(r)*t.stride+int(c)]
	return v, !math.IsNaN(v)
}

// lookup returns cell (row, col) by name, and whether it holds a duration.
func (t *table[R]) lookup(row R, col string) (float64, bool) {
	r, c := t.rows.index(row), t.cols.index(col)
	if r < 0 || c < 0 {
		return 0, false
	}
	return t.get(r, c)
}

// each calls f on the cells of row r that hold a duration, in column
// order.
func (t *table[R]) each(r int32, f func(c int32, v float64)) {
	if t.sparse == nil {
		row := t.vals[int(r)*t.stride : int(r)*t.stride+len(t.cols.names)]
		for c, v := range row {
			if !math.IsNaN(v) {
				f(int32(c), v)
			}
		}
		return
	}
	cols := slices.Clone(t.rowCols[r])
	slices.Sort(cols)
	for _, c := range cols {
		f(c, t.sparse[[2]int32{r, c}])
	}
}

func (t *table[R]) clone() table[R] {
	c := table[R]{
		rows:   t.rows.clone(),
		cols:   t.cols.clone(),
		stride: t.stride,
		vals:   slices.Clone(t.vals),
		n:      t.n,
		sparse: maps.Clone(t.sparse),

		prevRow: t.prevRow,
		nextCol: t.nextCol,
	}
	if t.rowCols != nil {
		c.rowCols = make([][]int32, len(t.rowCols))
		for r, cols := range t.rowCols {
			c.rowCols[r] = slices.Clone(cols)
		}
	}
	return c
}
