package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
)

// mapSpec is the map-of-maps table Spec was before its tables went dense,
// kept as the reference they are tested against. procs and links list the
// column names in order of first use, the order Spec sums a row in.
type mapSpec struct {
	exec         map[string]map[string]float64        // op -> proc -> duration
	comm         map[graph.EdgeKey]map[string]float64 // edge -> link -> duration
	procs, links []string
}

func newMapSpec() *mapSpec {
	return &mapSpec{
		exec: make(map[string]map[string]float64),
		comm: make(map[graph.EdgeKey]map[string]float64),
	}
}

// mapsOf copies s into the reference form.
func mapsOf(s *Spec) *mapSpec {
	m := newMapSpec()
	for r, op := range s.exec.rows.names {
		s.exec.each(int32(r), func(c int32, d float64) { _ = m.setExec(op, s.exec.cols.names[c], d) })
	}
	for r, e := range s.comm.rows.names {
		s.comm.each(int32(r), func(c int32, d float64) { _ = m.setComm(e, s.comm.cols.names[c], d) })
	}
	// Sum in the spec's column order, not in the order of the walk above.
	m.procs = append([]string(nil), s.exec.cols.names...)
	m.links = append([]string(nil), s.comm.cols.names...)
	return m
}

func (m *mapSpec) setExec(op, proc string, d float64) error {
	if math.IsNaN(d) || d < 0 {
		return fmt.Errorf("spec: exec(%s, %s) = %v: duration must be >= 0", op, proc, d)
	}
	row, ok := m.exec[op]
	if !ok {
		row = make(map[string]float64)
		m.exec[op] = row
	}
	if !m.hasProc(proc) {
		m.procs = append(m.procs, proc)
	}
	row[proc] = d
	return nil
}

func (m *mapSpec) setComm(e graph.EdgeKey, link string, d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("spec: comm(%s, %s) = %v: duration must be finite and >= 0", e, link, d)
	}
	row, ok := m.comm[e]
	if !ok {
		row = make(map[string]float64)
		m.comm[e] = row
	}
	if !m.hasLink(link) {
		m.links = append(m.links, link)
	}
	row[link] = d
	return nil
}

func (m *mapSpec) hasProc(p string) bool {
	for _, q := range m.procs {
		if q == p {
			return true
		}
	}
	return false
}

func (m *mapSpec) hasLink(l string) bool {
	for _, q := range m.links {
		if q == l {
			return true
		}
	}
	return false
}

// parseCommTable is ParseCommTable over the reference.
func (m *mapSpec) parseCommTable(text string) error {
	rows, header, err := parseRows(text)
	if err != nil {
		return fmt.Errorf("spec: comm table: %w", err)
	}
	edges := make([]graph.EdgeKey, 0, len(header)-1)
	for _, h := range header[1:] {
		parts := strings.Split(h, "->")
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return fmt.Errorf("spec: comm table: bad dependency %q (want src->dst)", h)
		}
		edges = append(edges, graph.EdgeKey{Src: parts[0], Dst: parts[1]})
	}
	for _, row := range rows {
		link := row[0]
		if len(row) != len(edges)+1 {
			return fmt.Errorf("spec: comm table: row for %q has %d entries, want %d", link, len(row)-1, len(edges))
		}
		for i, tok := range row[1:] {
			if tok == "-" {
				continue
			}
			d, err := parseDuration(tok)
			if err != nil {
				return fmt.Errorf("spec: comm table: (%s, %s): %w", edges[i], link, err)
			}
			if err := m.setComm(edges[i], link, d); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *mapSpec) execOf(op, proc string) float64 {
	if row, ok := m.exec[op]; ok {
		if d, ok := row[proc]; ok {
			return d
		}
	}
	return Inf
}

func (m *mapSpec) commOf(e graph.EdgeKey, link string) (float64, error) {
	if row, ok := m.comm[e]; ok {
		if d, ok := row[link]; ok {
			return d, nil
		}
	}
	return 0, fmt.Errorf("spec: no communication duration for %s over link %q", e, link)
}

func (m *mapSpec) allowedProcs(op string) []string {
	var out []string
	for p, d := range m.exec[op] {
		if !math.IsInf(d, 1) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func (m *mapSpec) avgExec(op string) float64 {
	sum, n := 0.0, 0
	row := m.exec[op]
	for _, p := range m.procs {
		if d, ok := row[p]; ok && !math.IsInf(d, 1) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return Inf
	}
	return sum / float64(n)
}

func (m *mapSpec) avgComm(e graph.EdgeKey) float64 {
	row := m.comm[e]
	if len(row) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range m.links {
		if d, ok := row[l]; ok {
			sum += d
		}
	}
	return sum / float64(len(row))
}

func (m *mapSpec) validate(g *graph.Graph, a *arch.Architecture) error {
	var errs []string
	for op, row := range m.exec {
		if !g.HasOp(op) {
			errs = append(errs, fmt.Sprintf("exec table references unknown operation %q", op))
		}
		for p := range row {
			if !a.HasProcessor(p) {
				errs = append(errs, fmt.Sprintf("exec table references unknown processor %q (op %q)", p, op))
			}
		}
	}
	for _, op := range g.OpNames() {
		if len(m.allowedProcs(op)) == 0 {
			errs = append(errs, fmt.Sprintf("operation %q has no processor able to execute it", op))
		}
	}
	for e, row := range m.comm {
		if g.Edge(e) == nil {
			errs = append(errs, fmt.Sprintf("comm table references unknown dependency %s", e))
		}
		for l := range row {
			if a.Link(l) == nil {
				errs = append(errs, fmt.Sprintf("comm table references unknown link %q (dependency %s)", l, e))
			}
		}
	}
	links := a.LinkNames()
	for _, e := range g.Edges() {
		row := m.comm[e.Key()]
		for _, l := range links {
			if _, ok := row[l]; !ok {
				errs = append(errs, fmt.Sprintf("dependency %s has no duration on link %q", e.Key(), l))
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return errors.New("spec: invalid constraints:\n  " + strings.Join(errs, "\n  "))
	}
	return nil
}

// The reflection codec the spec document was defined by, kept as the
// oracle the byte-level codec in io.go is tested against.

type refSpec struct {
	Exec []refExec `json:"exec"`
	Comm []refComm `json:"comm"`
}

type refExec struct {
	Op       string      `json:"op"`
	Proc     string      `json:"proc"`
	Duration json.Number `json:"duration"`
}

type refComm struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	Link     string  `json:"link"`
	Duration float64 `json:"duration"`
}

// refMarshal encodes m with encoding/json.
func refMarshal(m *mapSpec) ([]byte, error) {
	var js refSpec
	ops := make([]string, 0, len(m.exec))
	for op := range m.exec {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		procs := make([]string, 0, len(m.exec[op]))
		for p := range m.exec[op] {
			procs = append(procs, p)
		}
		sort.Strings(procs)
		for _, p := range procs {
			d := m.exec[op][p]
			num := json.Number(`1e999`)
			if !math.IsInf(d, 1) {
				num = json.Number(fmt.Sprintf("%g", d))
			}
			js.Exec = append(js.Exec, refExec{Op: op, Proc: p, Duration: num})
		}
	}
	edges := make([]graph.EdgeKey, 0, len(m.comm))
	for e := range m.comm {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	for _, e := range edges {
		links := make([]string, 0, len(m.comm[e]))
		for l := range m.comm[e] {
			links = append(links, l)
		}
		sort.Strings(links)
		for _, l := range links {
			js.Comm = append(js.Comm, refComm{Src: e.Src, Dst: e.Dst, Link: l, Duration: m.comm[e][l]})
		}
	}
	return json.Marshal(js)
}

// refUnmarshal decodes data with encoding/json.
func refUnmarshal(data []byte) (*mapSpec, error) {
	var js refSpec
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	m := newMapSpec()
	for _, e := range js.Exec {
		d, err := parseDuration(string(e.Duration))
		if err != nil {
			return nil, fmt.Errorf("spec: decode exec(%s,%s): %w", e.Op, e.Proc, err)
		}
		if err := m.setExec(e.Op, e.Proc, d); err != nil {
			return nil, err
		}
	}
	for _, c := range js.Comm {
		if err := m.setComm(graph.EdgeKey{Src: c.Src, Dst: c.Dst}, c.Link, c.Duration); err != nil {
			return nil, err
		}
	}
	return m, nil
}
