// Package epochpurity promotes the DESIGN.md §13 runtime assertion to a
// compile-time proof: no function transitively reachable from the
// evaluation-phase roots (the scheduler's evaluateStep and the pressure
// table's dense Sigma read path) may write a field of epoch-guarded state —
// any named struct carrying a mutEpoch counter — or reach a mutator that
// does.
//
// The proof is interprocedural and guard-aware. The core shares one arrival
// routine between evaluation and commit, distinguished by a `commit bool`
// parameter; a mutation the CFG proves unreachable when commit is false is a
// guarded effect, and a call site passing literal false discharges it. Only
// effects that survive discharge all the way up to a root are reported.
//
// Sound up to the call graph's blind spots (interface dispatch, escaped
// function values); //ftlint:epoch-pure <why> sanctions a site the engine
// cannot see is safe, and keeps it out of exported facts.
package epochpurity

import (
	"sort"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/callgraph"
	"ftsched/internal/analysis/summary"
)

// Analyzer is the epochpurity pass.
var Analyzer = &analysis.Analyzer{
	Name: "epochpurity",
	Doc:  "prove the evaluation phase never mutates epoch-guarded scheduler state",
	Run:  run,
}

// rootSpec names one evaluation-phase entry point.
type rootSpec struct {
	Recv string // receiver type name, "" for any
	Name string // function or method name
}

// Roots lists the evaluation-phase entry points per package base name.
// Fixture packages use the same bases, so analysistest exercises the same
// table.
var Roots = map[string][]rootSpec{
	"core":     {{Name: "evaluateStep"}},
	"pressure": {{Recv: "Table", Name: "Sigma"}},
}

func run(pass *analysis.Pass) error {
	base := analysis.PkgBase(pass.Pkg.Path())
	specs := Roots[base]
	if len(specs) == 0 {
		return nil
	}
	info := summary.For(pass)
	roots := rootNodes(info.Graph, specs)
	seen := map[string]bool{}
	for _, root := range roots {
		s := info.Local[root]
		if s == nil {
			continue
		}
		for _, eff := range s.Protected {
			if seen[eff.Site] {
				continue
			}
			seen[eff.Site] = true
			pass.Reportf(eff.Pos,
				"evaluation path from %s reaches a mutation of epoch-guarded state: %s%s; the evaluation phase must not move mutEpoch (DESIGN.md §13) — gate the write behind the commit flag or annotate //ftlint:epoch-pure <why>",
				root.Name, eff.Desc(), summary.ChainString(eff.Path))
		}
	}
	return nil
}

// rootNodes resolves the package's root specs against the call graph.
func rootNodes(g *callgraph.Graph, specs []rootSpec) []*callgraph.Node {
	var out []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		for _, spec := range specs {
			if n.Decl.Name.Name != spec.Name {
				continue
			}
			if spec.Recv != "" {
				if n.Fn == nil {
					continue
				}
				named := analysis.NamedRecv(n.Fn)
				if named == nil || named.Obj().Name() != spec.Recv {
					continue
				}
			}
			out = append(out, n)
		}
	}
	return out
}

// Coverage returns, sorted, the display names of every function the pass's
// reachability analysis covers from the package's roots — the set the
// acceptance test diffs against an independently-computed call-graph
// traversal, proving no function reachable from evaluateStep escapes the
// purity check.
func Coverage(info *summary.Info, pkgBase string) []string {
	specs := Roots[pkgBase]
	roots := rootNodes(info.Graph, specs)
	reach := info.Graph.ReachableFrom(roots)
	names := make([]string, 0, len(reach))
	for n := range reach {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}
