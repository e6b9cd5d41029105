package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ftsched/internal/graph"
)

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

// refMarshal encodes s with encoding/json.
func refMarshal(s *Spec) ([]byte, error) {
	var js refSpec
	ops := make([]string, 0, len(s.exec))
	for op := range s.exec {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		procs := make([]string, 0, len(s.exec[op]))
		for p := range s.exec[op] {
			procs = append(procs, p)
		}
		sort.Strings(procs)
		for _, p := range procs {
			d := s.exec[op][p]
			num := json.Number(`1e999`)
			if !math.IsInf(d, 1) {
				num = json.Number(fmt.Sprintf("%g", d))
			}
			js.Exec = append(js.Exec, refExec{Op: op, Proc: p, Duration: num})
		}
	}
	edges := make([]graph.EdgeKey, 0, len(s.comm))
	for e := range s.comm {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	for _, e := range edges {
		links := make([]string, 0, len(s.comm[e]))
		for l := range s.comm[e] {
			links = append(links, l)
		}
		sort.Strings(links)
		for _, l := range links {
			js.Comm = append(js.Comm, refComm{Src: e.Src, Dst: e.Dst, Link: l, Duration: s.comm[e][l]})
		}
	}
	return json.Marshal(js)
}

// refUnmarshal decodes data with encoding/json.
func refUnmarshal(data []byte) (*Spec, error) {
	var js refSpec
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	ns := New()
	for _, e := range js.Exec {
		d, err := parseDuration(string(e.Duration))
		if err != nil {
			return nil, fmt.Errorf("spec: decode exec(%s,%s): %w", e.Op, e.Proc, err)
		}
		if err := ns.SetExec(e.Op, e.Proc, d); err != nil {
			return nil, err
		}
	}
	for _, c := range js.Comm {
		if err := ns.SetComm(graph.EdgeKey{Src: c.Src, Dst: c.Dst}, c.Link, c.Duration); err != nil {
			return nil, err
		}
	}
	return ns, nil
}
