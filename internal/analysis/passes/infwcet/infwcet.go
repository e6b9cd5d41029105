// Package infwcet guards the ∞ sentinel of the Δ(op, proc) execution-time
// table. spec.Exec and spec.View.Exec return spec.Inf (IEEE +Inf) for a
// forbidden placement, and spec.AvgExec and spec.View.AvgExec return it
// for an unplaceable operation; raw arithmetic
// on such a value silently produces ±Inf or NaN (Inf − Inf), which then
// mis-ranks every schedule-pressure candidate instead of failing loudly.
//
// The pass flags three shapes:
//
//   - the sentinel itself (spec.Inf or a direct math.Inf call) used as an
//     operand of +, -, *, / or an ordering comparison;
//   - a possibly-∞ accessor call (Exec, AvgExec) used directly as
//     such an operand;
//   - a variable assigned from a possibly-∞ accessor and later used in
//     arithmetic at a point not dominated by a finiteness check (math.IsInf,
//     math.IsNaN, or the CanRun helper). Dominance is computed on the
//     function's CFG, so a check on one branch does not sanction the other,
//     and a check placed after the arithmetic does not sanction it at all.
//
// Use the spec helpers (CanRun, math.IsInf) before computing, or annotate a
// proven-guarded site with //ftlint:infwcet-checked <why>.
package infwcet

import (
	"go/ast"
	"go/token"
	"go/types"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/cfg"
)

// Analyzer is the infwcet pass.
var Analyzer = &analysis.Analyzer{
	Name: "infwcet",
	Doc:  "flag raw arithmetic and ordering comparisons on the ∞ WCET sentinel",
	Run:  run,
}

// possiblyInf reports whether the call's static callee may return the ∞
// sentinel: the spec table's name- and ID-keyed accessors.
func possiblyInf(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, recv := range [...]string{"Spec", "View"} {
		if analysis.IsMethodOn(pass.TypesInfo, call, "spec", recv, "Exec") ||
			analysis.IsMethodOn(pass.TypesInfo, call, "spec", recv, "AvgExec") {
			return true
		}
	}
	return false
}

// isSentinel reports whether e denotes the ∞ sentinel: the Inf package
// variable of a spec package, or a direct math.Inf(...) call.
func isSentinel(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return isInfVar(pass.TypesInfo.Uses[e])
	case *ast.SelectorExpr:
		return isInfVar(pass.TypesInfo.Uses[e.Sel])
	case *ast.CallExpr:
		return analysis.IsStdCall(pass.TypesInfo, e, "math", "Inf")
	}
	return false
}

func isInfVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Name() == "Inf" && v.Pkg() != nil && analysis.PkgBase(v.Pkg().Path()) == "spec"
}

func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		return true
	}
	return false
}

func orderingOp(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd)
			return true
		})
	}
	return nil
}

// isGuardCall reports whether the call consults a finiteness helper.
func isGuardCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	return analysis.IsStdCall(pass.TypesInfo, call, "math", "IsInf") ||
		analysis.IsStdCall(pass.TypesInfo, call, "math", "IsNaN") ||
		analysis.IsMethodOn(pass.TypesInfo, call, "spec", "Spec", "CanRun")
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// tainted maps variables assigned from a possibly-∞ accessor to the
	// position of that assignment.
	tainted := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !possiblyInf(pass, call) || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						tainted[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})

	// A tainted variable's arithmetic use is sanctioned only by a finiteness
	// check that dominates it on the CFG: same block, earlier node — or any
	// node of a strictly dominating block. A check on a sibling branch, or
	// one placed after the use, no longer silences the whole function.
	g := cfg.New(fd.Body)
	dom := g.Dominators()
	guardNode := map[int]int{} // block index → earliest node index holding a guard call
	for _, blk := range g.Blocks {
		for ni, node := range blk.Nodes {
			found := false
			for _, part := range headParts(node) {
				ast.Inspect(part, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok && isGuardCall(pass, call) {
						found = true
						return false
					}
					return !found
				})
			}
			if found {
				guardNode[blk.Index] = ni
				break
			}
		}
	}
	guardDominates := func(pos token.Pos) bool {
		blk, idx, ok := g.BlockOf(pos)
		if !ok {
			// Outside the CFG (e.g. inside a nested FuncLit the builder
			// treats as opaque): fall back to the coarse any-guard test.
			return len(guardNode) > 0
		}
		for bi, ni := range guardNode {
			if bi == blk.Index {
				if ni <= idx {
					return true
				}
				continue
			}
			if dom[blk.Index][bi] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		arith, ordering := arithmeticOp(be.Op), orderingOp(be.Op)
		if !arith && !ordering {
			return true
		}
		for _, operand := range []ast.Expr{be.X, be.Y} {
			operand = ast.Unparen(operand)
			if isSentinel(pass, operand) {
				pass.Reportf(be.OpPos, "raw %s on the ∞ WCET sentinel yields Inf/NaN and mis-ranks candidates; compare with math.IsInf or use the spec helpers, or annotate with //ftlint:infwcet-checked <why>", opKind(arith))
				return true
			}
			if call, ok := operand.(*ast.CallExpr); ok && possiblyInf(pass, call) {
				pass.Reportf(be.OpPos, "result of %s may be the ∞ sentinel; guard with CanRun/math.IsInf before %s, or annotate with //ftlint:infwcet-checked <why>",
					calleeName(pass, call), opKind(arith))
				return true
			}
			if arith {
				if id, ok := operand.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] && !guardDominates(be.OpPos) {
					pass.Reportf(be.OpPos, "%s holds the result of a possibly-∞ spec accessor with no dominating finiteness check; guard with CanRun/math.IsInf, or annotate with //ftlint:infwcet-checked <why>", id.Name)
					return true
				}
			}
		}
		return true
	})
}

// headParts returns the parts of a CFG node that run where the node sits.
// A range statement stands in its loop-head block for the per-iteration
// binding and exhaustion test, so only its key, value and operand count;
// its body has blocks of its own, and a guard there must not be credited
// to the head, which dominates the body's uses.
func headParts(n ast.Node) []ast.Node {
	rs, ok := n.(*ast.RangeStmt)
	if !ok {
		return []ast.Node{n}
	}
	var parts []ast.Node
	for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
		if e != nil {
			parts = append(parts, e)
		}
	}
	return parts
}

func opKind(arith bool) string {
	if arith {
		return "arithmetic"
	}
	return "ordering comparison"
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		return fn.Name()
	}
	return "the call"
}
