// Package hotalloc polices allocation on the hot paths the profiles of
// PR 5 and PR 7 each rediscovered the hard way: functions reachable from the
// per-candidate, per-pattern, and per-event entry points must not allocate
// per call. Flagged site classes are fmt.Sprint*/Errorf calls, map and slice
// literals, escaping closures (capturing literals that outlive the call),
// and append growth into slices declared without a capacity hint — all
// recorded by the summary engine, which also carries allocation facts across
// package boundaries so a helper in a support package cannot hide a Sprintf
// from the scheduler's inner loop.
//
// A site that allocates by design (a sized per-candidate buffer, a
// cold-start path) is sanctioned with //ftlint:hotalloc-ok <why>, which also
// keeps it out of exported facts.
package hotalloc

import (
	"ftsched/internal/analysis"
	"ftsched/internal/analysis/callgraph"
	"ftsched/internal/analysis/summary"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid per-call allocation in functions reachable from the hot entry points",
	Run:  run,
}

// rootSpec names one hot entry point.
type rootSpec struct {
	Recv string // receiver type name, "" for any
	Name string
}

// Roots lists the hot entry points per package base: the innermost
// per-candidate evaluation in the scheduler, the per-pattern check in the
// certifier, the per-event step in the simulator, and the dense σ lookup.
var Roots = map[string][]rootSpec{
	"core":    {{Name: "evaluateOne"}},
	"certify": {{Name: "checkPattern"}},
	"sim": {
		{Recv: "engine", Name: "nextAction"}, {Recv: "engine", Name: "execOp"},
		{Recv: "Runner", Name: "runCompiled"}, {Recv: "Runner", Name: "Reset"},
	},
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
	if len(roots) == 0 {
		return nil
	}
	reach := info.Graph.ReachableFrom(roots)
	seen := map[string]bool{}
	for _, n := range info.Graph.Nodes { // node order keeps reports deterministic
		if !reach[n] {
			continue
		}
		s := info.Local[n]
		if s == nil {
			continue
		}
		// The node's own sites (propagated entries carry a call path and are
		// reported where they originate, or below for imported callees).
		for _, a := range s.Allocs {
			if len(a.Path) > 0 || seen[a.Site] {
				continue
			}
			seen[a.Site] = true
			pass.Reportf(a.Pos,
				"allocation on a hot path (reachable from the per-step entry points): %s; hoist it out of the loop, reuse a buffer, or annotate //ftlint:hotalloc-ok <why>",
				a.Desc())
		}
		// Cross-package callees whose facts carry allocation sites.
		for _, e := range n.Out {
			if e.Ext == nil {
				continue
			}
			imp := info.Imported[e.Ext.FullName()]
			if imp == nil || len(imp.Allocs) == 0 {
				continue
			}
			a := imp.Allocs[0]
			key := "ext:" + e.Ext.FullName() + "@" + pass.Fset.Position(e.Site.Pos()).String()
			if seen[key] {
				continue
			}
			seen[key] = true
			pass.Reportf(e.Site.Pos(),
				"hot-path call to %s, which allocates (%s%s); inline a non-allocating variant or annotate //ftlint:hotalloc-ok <why>",
				e.Ext.FullName(), a.Site, summary.ChainString(a.Path))
		}
	}
	return nil
}

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
