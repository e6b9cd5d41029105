// Package errprop flags discarded error returns from this module's own
// APIs: a call statement (or go/defer) whose callee lives in the module and
// returns an error that nobody reads. This is exactly the bug class behind
// the ft1PassiveChain regression fixed in PR 2, where a dropped routing
// error silently produced a schedule unable to fail over.
//
// Dynamic calls are covered when the function value is traceable: a local
// variable bound to a method value (f := c.Close), to a module function, or
// to an error-returning closure (the errgroup-style `func() error` worker
// idiom) is tracked, and calling it as a bare statement is flagged like the
// direct call would be. Rebinding such a variable to an out-of-module
// function later is not modeled; //ftlint:allow-discard covers that corner.
//
// Since v3 the tracking is one call level deeper through the summary facts
// engine: `f := pkg.Factory()` where the factory's summary says it returns
// an error-valued function (ErrorValued) taints f, so discarding the result
// of f() is flagged even though the closure's body lives in another package.
//
// Standard-library and third-party callees are out of scope (fmt.Println
// noise); an intentional discard is annotated //ftlint:allow-discard <why>.
package errprop

import (
	"go/ast"
	"go/types"
	"strings"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/summary"
)

// Analyzer is the errprop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errprop",
	Doc:  "flag discarded error returns from the module's own APIs",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	sums := summary.For(pass)
	for _, f := range pass.Files {
		vals := trackFuncValues(pass, sums, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				check(pass, vals, s.X, "")
			case *ast.GoStmt:
				check(pass, vals, s.Call, "go ")
			case *ast.DeferStmt:
				check(pass, vals, s.Call, "defer ")
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, vals map[*types.Var]string, e ast.Expr, prefix string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		checkDynamic(pass, vals, call, prefix)
		return
	}
	if fn.Pkg() == nil || !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
		return
	}
	if returnsError(analysis.Signature(fn)) {
		pass.Reportf(call.Pos(), "%s%s returns an error that is discarded; handle it, return it, or annotate with //ftlint:allow-discard <why>",
			prefix, qualifiedName(fn))
	}
}

// checkDynamic flags bare calls of tracked function values: method values,
// module function values, and error-returning closures.
func checkDynamic(pass *analysis.Pass, vals map[*types.Var]string, call *ast.CallExpr, prefix string) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	desc, ok := vals[v]
	if !ok {
		return
	}
	pass.Reportf(call.Pos(), "%s%s (called through %q) returns an error that is discarded; handle it, return it, or annotate with //ftlint:allow-discard <why>",
		prefix, desc, id.Name)
}

// trackFuncValues maps local variables to the error-returning function
// values they are bound to: f := c.Close (method value), f := helper.Do
// (module function value), f := func() error {...} (closure), or
// f := pkg.Factory() where the factory's summary marks its result as an
// error-returning function.
func trackFuncValues(pass *analysis.Pass, sums *summary.Info, f *ast.File) map[*types.Var]string {
	info := pass.TypesInfo
	vals := map[*types.Var]string{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v, _ := info.Defs[id].(*types.Var)
		if v == nil {
			v, _ = info.Uses[id].(*types.Var)
		}
		if v == nil {
			return
		}
		if desc := describeFuncValue(pass, rhs); desc != "" {
			vals[v] = desc
			return
		}
		if desc := describeFactoryValue(pass, sums, rhs); desc != "" {
			vals[v] = desc
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return vals
}

// describeFuncValue classifies an expression as a trackable error-returning
// function value, returning a human-readable description or "".
func describeFuncValue(pass *analysis.Pass, e ast.Expr) string {
	info := pass.TypesInfo
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// Method value: c.Close with no call. The selection must be a
		// method of a module type whose signature returns an error.
		if sel, ok := info.Selections[x]; ok {
			if sel.Kind() != types.MethodVal {
				return ""
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok || fn.Pkg() == nil || !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
				return ""
			}
			if !returnsError(analysis.Signature(fn)) {
				return ""
			}
			return "method value " + qualifiedName(fn)
		}
		// Not a selection: a package-qualified function, pkg.Fn.
		fn, ok := info.Uses[x.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
			return ""
		}
		if !returnsError(analysis.Signature(fn)) {
			return ""
		}
		return "function value " + qualifiedName(fn)
	case *ast.Ident:
		fn, ok := info.Uses[x].(*types.Func)
		if !ok || fn.Pkg() == nil || !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
			return ""
		}
		if !returnsError(analysis.Signature(fn)) {
			return ""
		}
		return "function value " + qualifiedName(fn)
	case *ast.FuncLit:
		sig, ok := info.TypeOf(x).(*types.Signature)
		if !ok || !returnsError(sig) {
			return ""
		}
		return "closure"
	}
	return ""
}

// describeFactoryValue classifies `pkg.Factory()` results: when the called
// module function's interprocedural summary says it returns an error-valued
// function, the bound variable is tracked like a closure would be. This is
// the one-level taint propagation the facts engine enables: the factory may
// live in another loaded package.
func describeFactoryValue(pass *analysis.Pass, sums *summary.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
		return ""
	}
	s := sums.ForFunc(fn)
	if s == nil || !s.ErrorValued {
		return ""
	}
	return "error-returning function built by " + qualifiedName(fn)
}

// returnsError reports whether any result of the signature is an error.
func returnsError(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if analysis.IsErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// sameModule reports whether two import paths share their first element —
// "ftsched/internal/core" and "ftsched/internal/graph" do, "fmt" does not.
// Fixture packages ("errprop" calling "errprop/helper") match the same way.
func sameModule(a, b string) bool {
	return firstElem(a) == firstElem(b)
}

func firstElem(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

func qualifiedName(fn *types.Func) string {
	if named := analysis.NamedRecv(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return analysis.PkgBase(fn.Pkg().Path()) + "." + fn.Name()
}
