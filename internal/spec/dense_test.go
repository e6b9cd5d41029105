package spec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
)

// The names a differential sequence draws from: each list ends with names
// the check problem does not declare.
var (
	diffOps   = []string{"A", "B", "C", "Z"}
	diffProcs = []string{"P1", "P2", "P3", "P9"}
	diffLinks = []string{"L1", "L2", "bus", "X"}
	diffEdges = []graph.EdgeKey{{Src: "A", Dst: "B"}, {Src: "A", Dst: "C"}, {Src: "B", Dst: "C"}, {Src: "Z", Dst: "A"}}
	diffDurs  = []float64{0, 1, 2.5, 1e-7, 3, -1, math.NaN(), Inf}
)

// diffProblem is the problem the differential checks validate against:
// ops A, B, C with edges A->B, A->C, B->C on P1..P3 joined by L1, L2 and
// a bus.
func diffProblem(t *testing.T) (*graph.Graph, *arch.Architecture) {
	t.Helper()
	g := graph.New("g")
	a := arch.New("a")
	for _, op := range diffOps[:3] {
		if err := g.AddComp(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range diffEdges[:3] {
		if err := g.Connect(e.Src, e.Dst); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range diffProcs[:3] {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{a.AddLink("L1", "P1", "P2"), a.AddLink("L2", "P2", "P3"), a.AddBus("bus", "P1", "P2", "P3")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return g, a
}

// applyOps decodes data into SetExec, SetComm and ParseCommTable calls,
// applies each to s and to the reference m, and requires the same errors.
func applyOps(t *testing.T, s *Spec, m *mapSpec, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	same := func(what string, got, want error) {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: error %v, reference %v", what, got, want)
		}
	}
	for len(data) > 0 {
		switch next() % 3 {
		case 0:
			op, p, d := diffOps[next()%4], diffProcs[next()%4], diffDurs[next()%8]
			same(fmt.Sprintf("SetExec(%s, %s, %v)", op, p, d), s.SetExec(op, p, d), m.setExec(op, p, d))
		case 1:
			e, l, d := diffEdges[next()%4], diffLinks[next()%4], diffDurs[next()%8]
			same(fmt.Sprintf("SetComm(%s, %s, %v)", e, l, d), s.SetComm(e, l, d), m.setComm(e, l, d))
		default:
			text := commTableText(next)
			same(fmt.Sprintf("ParseCommTable(%q)", text), s.ParseCommTable(text), m.parseCommTable(text))
		}
	}
}

// commTableText builds a small comm table from next, holes ("-") and
// malformed entries included.
func commTableText(next func() int) string {
	toks := []string{"-", "1", "0.5", "2", "inf", "x", "-1", "0"}
	var b strings.Builder
	b.WriteString("dep/link")
	cols := 1 + next()%3
	for i := 0; i < cols; i++ {
		if next()%16 == 0 {
			b.WriteString(" A-B") // not src->dst
		} else {
			fmt.Fprintf(&b, " %s", diffEdges[next()%4])
		}
	}
	rows := 1 + next()%3
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&b, "\n%s", diffLinks[next()%4])
		n := cols
		if next()%16 == 0 {
			n++ // a row of the wrong length
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " %s", toks[next()%len(toks)])
		}
	}
	return b.String()
}

// checkAgainstRef requires s to answer every query as the reference m
// does, bit for bit, over the given names.
func checkAgainstRef(t *testing.T, s *Spec, m *mapSpec, g *graph.Graph, a *arch.Architecture, ops, procs, links []string, edges []graph.EdgeKey) {
	t.Helper()
	bits := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, reference %v", what, got, want)
		}
	}
	for _, op := range ops {
		for _, p := range procs {
			bits(fmt.Sprintf("Exec(%s, %s)", op, p), s.Exec(op, p), m.execOf(op, p))
		}
		if got, want := s.AllowedProcs(op), m.allowedProcs(op); !slices.Equal(got, want) {
			t.Fatalf("AllowedProcs(%s) = %v, reference %v", op, got, want)
		}
		if got, want := s.NumAllowed(op), len(m.allowedProcs(op)); got != want {
			t.Fatalf("NumAllowed(%s) = %d, reference %d", op, got, want)
		}
		bits(fmt.Sprintf("AvgExec(%s)", op), s.AvgExec(op), m.avgExec(op))
	}
	for _, e := range edges {
		for _, l := range links {
			got, err := s.Comm(e, l)
			want, refErr := m.commOf(e, l)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("Comm(%s, %s): error %v, reference %v", e, l, err, refErr)
			}
			bits(fmt.Sprintf("Comm(%s, %s)", e, l), got, want)
		}
		bits(fmt.Sprintf("AvgComm(%s)", e), s.AvgComm(e), m.avgComm(e))
	}
	// The View reads the same cells by the problem's IDs.
	v := s.View(g, a)
	for _, op := range ops {
		o := g.OpID(op)
		if o < 0 {
			continue
		}
		for _, p := range procs {
			if id := a.ProcID(p); id >= 0 {
				bits(fmt.Sprintf("View.Exec(%s, %s)", op, p), v.Exec(o, id), m.execOf(op, p))
			}
		}
		bits(fmt.Sprintf("View.AvgExec(%s)", op), v.AvgExec(o), m.avgExec(op))
	}
	for _, e := range edges {
		id := g.EdgeID(e)
		if id < 0 {
			continue
		}
		for _, l := range links {
			if lid := a.LinkID(l); lid >= 0 {
				got, ok := v.Comm(id, lid)
				want, refErr := m.commOf(e, l)
				if ok != (refErr == nil) {
					t.Fatalf("View.Comm(%s, %s): ok %v, reference error %v", e, l, ok, refErr)
				}
				if ok {
					bits(fmt.Sprintf("View.Comm(%s, %s)", e, l), got, want)
				}
			}
		}
		bits(fmt.Sprintf("View.AvgComm(%s)", e), v.AvgComm(id), m.avgComm(e))
	}
	if got, want := fmt.Sprint(s.Validate(g, a)), fmt.Sprint(m.validate(g, a)); got != want {
		t.Fatalf("Validate:\n%s\nreference:\n%s", got, want)
	}
	got, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMarshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON\n%s\nreference\n%s", got, want)
	}
	c := s.Clone()
	if again, _ := c.MarshalJSON(); !bytes.Equal(again, got) {
		t.Fatalf("Clone encodes as\n%s\nwant\n%s", again, got)
	}
}

// FuzzSpecDifferential applies a sequence of SetExec, SetComm and
// ParseCommTable calls, overwrites and "-" holes included, to a Spec and
// to the map-of-maps reference, and requires the same answers from both.
func FuzzSpecDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 2, 0, 1, 1, 6, 0, 1, 1, 7, 1, 2, 2, 4})
	f.Add([]byte{2, 2, 0, 1, 2, 1, 0, 1, 3, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 2, 1, 0, 0, 1, 1, 1, 1, 3, 1, 2, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, a := diffProblem(t)
		s, m := New(), newMapSpec()
		applyOps(t, s, m, data)
		checkAgainstRef(t, s, m, g, a, diffOps, diffProcs, diffLinks, diffEdges)
	})
}

// TestSparseTableMatchesReference builds tables that pair far more rows
// and columns than they have entries, so they leave the dense layout, and
// requires the reference's answers from them.
func TestSparseTableMatchesReference(t *testing.T) {
	g, a := diffProblem(t)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		s, m := New(), newMapSpec()
		var ops, procs, links []string
		var edges []graph.EdgeKey
		n := 600 + r.Intn(600)
		for i := 0; i < n; i++ {
			// A diagonal of fresh names, with cells of earlier rows and
			// columns and overwrites mixed in, so rows hold several cells
			// set out of column order.
			op, p := fmt.Sprintf("o%d", i), fmt.Sprintf("p%d", i)
			e, l := graph.EdgeKey{Src: op, Dst: "B"}, fmt.Sprintf("l%d", i)
			if i > 0 && r.Intn(3) == 0 {
				op, p, l = ops[r.Intn(len(ops))], procs[r.Intn(len(procs))], links[r.Intn(len(links))]
				e = graph.EdgeKey{Src: op, Dst: "B"}
			}
			ops, procs, links, edges = append(ops, op), append(procs, p), append(links, l), append(edges, e)
			d := r.Float64() * 4 // full mantissas make the sums order-sensitive
			x := d
			if r.Intn(10) == 0 {
				x = Inf
			}
			if err := s.SetExec(op, p, x); err != nil {
				t.Fatal(err)
			}
			_ = m.setExec(op, p, x)
			if err := s.SetComm(e, l, d/3); err != nil {
				t.Fatal(err)
			}
			_ = m.setComm(e, l, d/3)
		}
		if s.exec.sparse == nil || s.comm.sparse == nil {
			t.Fatalf("trial %d: %d diagonal entries left a table dense", trial, n)
		}
		if cells := len(s.exec.vals) + len(s.comm.vals); cells != 0 {
			t.Fatalf("trial %d: sparse tables keep %d matrix cells", trial, cells)
		}
		ops = append(ops, diffOps...)
		procs = append(procs, diffProcs...)
		links = append(links, diffLinks...)
		edges = append(edges, diffEdges...)
		checkAgainstRef(t, s, m, g, a, ops[len(ops)-60:], procs[len(procs)-60:], links[len(links)-60:], edges[len(edges)-60:])
	}
}

// TestDenseTableMatchesReference fills tables in the orders documents and
// text tables use, row by row and column by column, with holes.
func TestDenseTableMatchesReference(t *testing.T) {
	g, a := diffProblem(t)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 200+r.Intn(400))
		r.Read(data)
		s, m := New(), newMapSpec()
		applyOps(t, s, m, data)
		if s.exec.sparse != nil || s.comm.sparse != nil {
			t.Fatalf("trial %d: a small table went sparse", trial)
		}
		checkAgainstRef(t, s, m, g, a, diffOps, diffProcs, diffLinks, diffEdges)
	}
}

// TestDecodeReservesFromCanonicalRows: the comm table is reserved from
// the first row's length only when its entries are as long as canonical
// ones, so a compact first row followed by a long tail reserves nothing.
func TestDecodeReservesFromCanonicalRows(t *testing.T) {
	pad := `,"x":"` + strings.Repeat("y", 1<<20) + `"`
	for _, c := range []struct {
		doc     string
		maxRows int
	}{
		{`{"comm":[{},{"src":"a"}]` + pad + `}`, 8},
		{`{"comm":[{"src":"a","dst":"b","link":"L","duration":1},{"src":"b","dst":"c","link":"L","duration":1}]` + pad + `}`, 1 << 15},
	} {
		var s Spec
		if err := s.UnmarshalJSON([]byte(c.doc)); err != nil {
			t.Fatal(err)
		}
		if got := cap(s.comm.rows.names); got > c.maxRows {
			t.Errorf("%.60q...: reserved %d rows, want at most %d", c.doc, got, c.maxRows)
		}
	}
}
