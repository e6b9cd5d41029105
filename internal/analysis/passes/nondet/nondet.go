// Package nondet forbids runtime nondeterminism sources inside the
// determinism-critical packages: wall-clock reads, the global math/rand
// source, environment reads, and multi-case selects (which choose a ready
// case pseudo-randomly). The paper's static guarantee assumes the schedule
// builder is a pure function of its inputs; any of these would let two runs
// of the same problem emit different schedules.
//
// Seeded randomness threaded explicitly through Options stays legal: the
// rand.New/rand.NewSource constructors are exempt, and methods on a
// *rand.Rand value are never package-level calls.
//
// Since v3 the pass is also interprocedural through the summary facts
// engine: a critical-package call into a non-critical module package whose
// summary is nondet-tainted (it reaches time.Now, os.Getenv, or the global
// rand source) is flagged at the call site, so hiding the clock read one
// helper away no longer works. Callees in critical packages are skipped
// (their own analysis flags the source directly), as is internal/obs, whose
// deliberate clock use the obssafe pass polices instead.
package nondet

import (
	"go/ast"
	"strings"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/summary"
)

// Analyzer is the nondet pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc:  "forbid wall-clock, global rand, env reads, and racy selects in the scheduler core",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsCriticalPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	}
	checkSummaries(pass)
	return nil
}

// checkSummaries flags calls that reach a nondeterminism source through a
// module callee outside the critical set — one level of taint propagation
// via the interprocedural facts.
func checkSummaries(pass *analysis.Pass) {
	info := summary.For(pass)
	for _, n := range info.Graph.Nodes {
		for _, e := range n.Out {
			fn := e.Ext
			if fn == nil || fn.Pkg() == nil {
				continue // local callees are flagged at their source lines
			}
			path := fn.Pkg().Path()
			if !sameModule(pass.Pkg.Path(), path) {
				continue // stdlib sources are the direct checks' job
			}
			if analysis.IsCriticalPackage(path) {
				continue // the callee's own analysis flags the source
			}
			if analysis.PkgBase(path) == "obs" {
				continue // deliberate clock use, policed by obssafe
			}
			s := info.Imported[fn.FullName()]
			if s == nil || len(s.Nondet) == 0 {
				continue
			}
			src := s.Nondet[0]
			pass.Reportf(e.Site.Pos(),
				"call to %s reaches a nondeterminism source (%s%s) from a determinism-critical package; thread explicit state through Options or annotate with //ftlint:allow-nondet <why>",
				fn.FullName(), src.Site, summary.ChainString(src.Path))
		}
	}
}

// sameModule reports whether two import paths share their first element.
func sameModule(a, b string) bool {
	return firstElem(a) == firstElem(b)
}

func firstElem(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || analysis.Signature(fn).Recv() != nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if kind, ok := summary.NondetCall(pkg, name); ok {
		pass.Reportf(call.Pos(), "%s %s.%s in a determinism-critical package: the schedule must be a pure function of its inputs; thread explicit state through Options or annotate with //ftlint:allow-nondet <why>",
			kind, pkg, name)
		return
	}
	if summary.GlobalRand(pkg, name) {
		pass.Reportf(call.Pos(), "global %s.%s consults the process-wide random source; use a seeded *rand.Rand threaded through Options, or annotate with //ftlint:allow-nondet <why>",
			pkg, name)
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	comm := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		pass.Reportf(sel.Select, "select with %d communication cases chooses a ready case pseudo-randomly; restructure for a deterministic receive order or annotate with //ftlint:allow-nondet <why>", comm)
	}
}
