// Package summary computes interprocedural function summaries over the
// package-local call graph: which protected state a function may mutate (and
// under which boolean-parameter guards), whether it may allocate on a hot
// path, whether it polls a cancellation flag each call, and which
// nondeterminism sources taint it. Summaries are computed bottom-up in SCC
// order, so a caller's summary folds in its callees', with guard conditions
// discharged at call sites that pass literal booleans — the `commit bool`
// pattern the scheduler core uses to share one arrival routine between the
// pure evaluation path and the mutating commit path.
//
// Facts cross package boundaries in process only: AttachAll computes the
// summaries of every loaded unit in dependency order and hands each unit the
// exported facts of the packages it imports, so taint flows from a callee's
// package into its callers'.
//
// Soundness caveats (shared with the call graph): calls through interfaces,
// stored struct fields, channels, or escaping function values are invisible,
// and a summary records may-behavior only. DESIGN.md §15 discusses both.
package summary

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/callgraph"
	"ftsched/internal/analysis/cfg"
)

// maxPath bounds call-chain provenance recorded per entry.
const maxPath = 6

// maxEntries bounds each summary list so SCC fixpoints terminate fast.
const maxEntries = 48

// Effect is one (possibly guarded) mutation of protected state — state whose
// type carries a mutEpoch field. Guards lists bool-parameter indices of the
// summarized function; the mutation can only happen when all of them hold.
// An empty Guards means unconditional.
type Effect struct {
	Site   string   `json:"site"` // "builder.go:571: writes schedState.deliv"
	Type   string   `json:"type"` // protected type name
	Guards []int    `json:"guards,omitempty"`
	Path   []string `json:"path,omitempty"` // call chain, nearest callee first

	Pos        token.Pos `json:"-"` // local reporting position
	Suppressed bool      `json:"-"` // an //ftlint:epoch-pure directive covers the site
}

// Alloc is one allocation site visible from the function.
type Alloc struct {
	Site string   `json:"site"` // "pool.go:88: fmt.Sprintf call"
	Path []string `json:"path,omitempty"`

	Pos        token.Pos `json:"-"`
	Suppressed bool      `json:"-"` // //ftlint:hotalloc-ok
}

// Nondet is one nondeterminism source visible from the function.
type Nondet struct {
	Site string   `json:"site"` // "loadgen.go:12: wall-clock read time.Now"
	Path []string `json:"path,omitempty"`

	Pos        token.Pos `json:"-"`
	Suppressed bool      `json:"-"` // //ftlint:allow-nondet
}

// Summary is the interprocedural fact set of one function.
type Summary struct {
	Protected   []Effect `json:"protected,omitempty"`
	Allocs      []Alloc  `json:"allocs,omitempty"`
	Nondet      []Nondet `json:"nondet,omitempty"`
	PollsCancel bool     `json:"polls,omitempty"`
	MutRecv     bool     `json:"mutRecv,omitempty"`
	MutParams   []int    `json:"mutParams,omitempty"`
	ErrorValued bool     `json:"errorValued,omitempty"`
}

// Info is the per-package result: the call graph, a summary per node, and
// the imported summaries (from AttachAll) keyed by
// types.Func.FullName.
type Info struct {
	Graph    *callgraph.Graph
	Local    map[*callgraph.Node]*Summary
	Imported map[string]*Summary
}

// ForFunc returns the summary of a declared function: local if the function
// belongs to this package, imported otherwise. Nil when unknown.
func (in *Info) ForFunc(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	if n := in.Graph.NodeOf(fn); n != nil {
		return in.Local[n]
	}
	return in.Imported[fn.FullName()]
}

// For returns the pass's attached summary info, computing a fresh
// imports-blind one when the driver attached nothing (direct framework use
// in unit tests).
func For(pass *analysis.Pass) *Info {
	if info, ok := pass.Facts.(*Info); ok && info != nil {
		return info
	}
	return Compute(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, nil)
}

// Compute builds the call graph and runs the bottom-up summary fixpoint.
// imported holds dependency summaries (nil is fine: cross-package calls then
// contribute nothing).
func Compute(fset *token.FileSet, files []*ast.File, pkg *types.Package, typesInfo *types.Info, imported map[string]*Summary) *Info {
	g := callgraph.Build(fset, files, typesInfo, pkg)
	info := &Info{Graph: g, Local: make(map[*callgraph.Node]*Summary, len(g.Nodes)), Imported: imported}
	dirs, _ := analysis.ParseDirectives(fset, files)
	c := &computer{fset: fset, info: typesInfo, dirs: dirs, cfgs: map[*callgraph.Node]*cfg.Graph{}}

	for _, n := range g.Nodes {
		info.Local[n] = c.base(n)
	}
	// Bottom-up over SCCs; within an SCC, iterate to a (bounded) fixpoint.
	for _, comp := range g.SCCs() {
		for round := 0; round < 8; round++ {
			changed := false
			for _, n := range comp {
				if c.fold(info, n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return info
}

// computer threads the per-package scan state.
type computer struct {
	fset *token.FileSet
	info *types.Info
	dirs []analysis.Directive
	cfgs map[*callgraph.Node]*cfg.Graph
}

func (c *computer) graphOf(n *callgraph.Node) *cfg.Graph {
	g, ok := c.cfgs[n]
	if !ok {
		g = cfg.New(n.Body())
		c.cfgs[n] = g
	}
	return g
}

// suppressedBy reports whether a //ftlint:<name> directive covers the line
// of pos (the same rule the framework uses for diagnostics: the directive's
// own line or the line above the site).
func (c *computer) suppressedBy(name string, pos token.Pos) bool {
	p := c.fset.Position(pos)
	for _, d := range c.dirs {
		if d.Name == name && d.Pos.Filename == p.Filename &&
			(p.Line == d.Line || p.Line == d.Line+1) {
			return true
		}
	}
	return false
}

func (c *computer) site(pos token.Pos, desc string) string {
	p := c.fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d: %s", name, p.Line, desc)
}

// base computes the intraprocedural summary of one node: its own mutation,
// allocation, polling, and nondeterminism sites, before any callee folding.
func (c *computer) base(n *callgraph.Node) *Summary {
	s := &Summary{}
	sig := n.Type(c.info)
	if sig != nil {
		s.ErrorValued = errorValued(sig)
	}
	body := n.Body()
	if body == nil {
		return s
	}
	bools := boolParams(n, c.info)

	// Walk the node's own statements; nested literals are separate nodes.
	walk(body, func(x ast.Node) {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return
			}
			for _, lhs := range x.Lhs {
				c.recordMutation(s, n, sig, bools, lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			c.recordMutation(s, n, sig, bools, x.X, x.Pos())
		case *ast.CallExpr:
			c.scanCall(s, n, sig, bools, x)
		case *ast.CompositeLit:
			c.scanComposite(s, x)
		case *ast.FuncLit:
			// Handled below via the escaping-closure scan.
		}
	})
	c.scanClosures(s, body)
	c.scanAppendGrowth(s, body)
	sortSummary(s)
	return s
}

// recordMutation classifies one write target. A write whose selector/index
// chain passes through a value of a protected type (a named struct carrying
// a mutEpoch field) becomes a Protected effect, guarded by whichever bool
// parameters the CFG proves must be true for the site to execute. Writes
// through the receiver or a pointer parameter set MutRecv/MutParams.
func (c *computer) recordMutation(s *Summary, n *callgraph.Node, sig *types.Signature, bools []boolParam, target ast.Expr, pos token.Pos) {
	tname, field, hit := protectedChain(c.info, target)
	base := baseIdent(target)
	if base != nil {
		if v, ok := c.info.Uses[base].(*types.Var); ok {
			if sig != nil && sig.Recv() != nil && v == sig.Recv() {
				if hit || isPointer(v.Type()) || !isLocalValue(v) {
					s.MutRecv = true
				}
			}
			if i := paramIndex(sig, v); i >= 0 && (hit || isPointer(v.Type())) {
				s.MutParams = addInt(s.MutParams, i)
			}
		}
	}
	if !hit {
		return
	}
	desc := "writes " + tname
	if field != "" {
		desc += "." + field
	}
	eff := Effect{
		Site:       c.site(pos, desc),
		Type:       tname,
		Guards:     c.guardsAt(n, bools, pos),
		Pos:        pos,
		Suppressed: c.suppressedBy("epoch-pure", pos),
	}
	s.Protected = addEffect(s.Protected, eff)
}

// scanCall records per-call facts: cancellation polls, banned
// nondeterminism sources, hot-path allocating stdlib calls, and builtin
// mutations of protected state (delete/copy into a protected map or slice).
func (c *computer) scanCall(s *Summary, n *callgraph.Node, sig *types.Signature, bools []boolParam, call *ast.CallExpr) {
	if isAtomicBoolLoad(c.info, call) {
		s.PollsCancel = true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "delete" || id.Name == "copy") {
			c.recordMutation(s, n, sig, bools, call.Args[0], call.Args[0].Pos())
		}
	}
	fn := analysis.CalleeFunc(c.info, call)
	if fn == nil || fn.Pkg() == nil || analysis.Signature(fn) == nil || analysis.Signature(fn).Recv() != nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if what, ok := nondetCalls[pkg+"."+name]; ok {
		s.Nondet = addNondet(s.Nondet, Nondet{
			Site:       c.site(call.Pos(), what+" "+pkg+"."+name),
			Pos:        call.Pos(),
			Suppressed: c.suppressedBy("allow-nondet", call.Pos()),
		})
	}
	if (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name] {
		s.Nondet = addNondet(s.Nondet, Nondet{
			Site:       c.site(call.Pos(), "global random source "+pkg+"."+name),
			Pos:        call.Pos(),
			Suppressed: c.suppressedBy("allow-nondet", call.Pos()),
		})
	}
	if pkg == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln" || name == "Errorf") {
		s.Allocs = addAlloc(s.Allocs, Alloc{
			Site:       c.site(call.Pos(), "fmt."+name+" call"),
			Pos:        call.Pos(),
			Suppressed: c.suppressedBy("hotalloc-ok", call.Pos()),
		})
	}
}

// scanComposite records map and slice literals (each evaluation allocates).
// Struct and array literals are value-shaped and stay exempt.
func (c *computer) scanComposite(s *Summary, lit *ast.CompositeLit) {
	t := c.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch types.Unalias(t.Underlying()).(type) {
	case *types.Map:
		s.Allocs = addAlloc(s.Allocs, Alloc{
			Site:       c.site(lit.Pos(), "map literal"),
			Pos:        lit.Pos(),
			Suppressed: c.suppressedBy("hotalloc-ok", lit.Pos()),
		})
	case *types.Slice:
		s.Allocs = addAlloc(s.Allocs, Alloc{
			Site:       c.site(lit.Pos(), "slice literal"),
			Pos:        lit.Pos(),
			Suppressed: c.suppressedBy("hotalloc-ok", lit.Pos()),
		})
	}
}

// scanClosures records capturing function literals that are not immediately
// invoked: each evaluation allocates the closure (and often moves captured
// variables to the heap). A literal with no free variables compiles to a
// static function and stays exempt.
func (c *computer) scanClosures(s *Summary, body *ast.BlockStmt) {
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})
	// Only literals directly owned by this node: nested literal allocations
	// belong to the literal's own summary.
	walk(body, func(x ast.Node) {
		lit, ok := x.(*ast.FuncLit)
		if !ok || invoked[lit] {
			return
		}
		if len(capturedVars(lit, c.info)) == 0 {
			return
		}
		s.Allocs = addAlloc(s.Allocs, Alloc{
			Site:       c.site(lit.Pos(), "escaping closure (captures variables)"),
			Pos:        lit.Pos(),
			Suppressed: c.suppressedBy("hotalloc-ok", lit.Pos()),
		})
	})
}

// scanAppendGrowth flags x = append(x, ...) inside a loop when x is a local
// slice visibly declared without a capacity hint — the amortized-growth
// pattern PR 7 profiled out of the evaluation path.
func (c *computer) scanAppendGrowth(s *Summary, body *ast.BlockStmt) {
	hinted := map[*types.Var]bool{}   // declared via make with a length/cap hint
	declared := map[*types.Var]bool{} // any visible local declaration
	note := func(id *ast.Ident, rhs ast.Expr) {
		v, _ := c.info.Defs[id].(*types.Var)
		if v == nil {
			return
		}
		if _, ok := types.Unalias(v.Type().Underlying()).(*types.Slice); !ok {
			return
		}
		declared[v] = true
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "make" {
				if len(call.Args) >= 3 || (len(call.Args) == 2 && !isZeroLiteral(call.Args[1])) {
					hinted[v] = true
				}
			}
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						note(id, x.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				var rhs ast.Expr
				if i < len(x.Values) {
					rhs = x.Values[i]
				}
				note(id, rhs)
			}
		}
		return true
	})
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				inLoop(x.Body, depth+1)
				return false
			case *ast.RangeStmt:
				inLoop(x.Body, depth+1)
				return false
			case *ast.CallExpr:
				if depth == 0 {
					return true
				}
				id, ok := x.Fun.(*ast.Ident)
				if !ok || id.Name != "append" || len(x.Args) == 0 {
					return true
				}
				dst, ok := ast.Unparen(x.Args[0]).(*ast.Ident)
				if !ok {
					return true
				}
				v, _ := c.info.Uses[dst].(*types.Var)
				if v == nil || !declared[v] || hinted[v] {
					return true
				}
				s.Allocs = addAlloc(s.Allocs, Alloc{
					Site:       c.site(x.Pos(), "append growth to "+dst.Name+" (declared without capacity hint)"),
					Pos:        x.Pos(),
					Suppressed: c.suppressedBy("hotalloc-ok", x.Pos()),
				})
				return true
			}
			return true
		})
	}
	inLoop(body, 0)
}

// fold incorporates callee summaries into n's summary, returning whether
// anything changed. Guarded callee effects are discharged or re-guarded
// according to the boolean arguments at each call site, then conjoined with
// the guards of the call site itself.
func (c *computer) fold(info *Info, n *callgraph.Node) bool {
	s := info.Local[n]
	bools := boolParams(n, c.info)
	changed := false
	for _, e := range n.Out {
		var callee *Summary
		var calleeName string
		imported := false
		if e.Callee != nil {
			callee = info.Local[e.Callee]
			calleeName = e.Callee.Name
		} else if e.Ext != nil {
			callee = info.Imported[e.Ext.FullName()]
			calleeName = e.Ext.FullName()
			imported = true
		}
		if callee == nil || callee == s {
			continue
		}
		siteGuards := c.guardsAt(n, bools, e.Site.Pos())
		params := calleeParams(c.info, e)

		for _, eff := range callee.Protected {
			guards, live := c.mapGuards(eff.Guards, e.Site, params, bools)
			if !live {
				continue // discharged: a guard received literal false
			}
			out := Effect{
				Site:       eff.Site,
				Type:       eff.Type,
				Guards:     mergeInts(guards, siteGuards),
				Path:       pushPath(eff.Path, calleeName),
				Pos:        eff.Pos,
				Suppressed: eff.Suppressed,
			}
			if imported || out.Pos == token.NoPos {
				out.Pos = e.Site.Pos()
			}
			if next := addEffect(s.Protected, out); len(next) != len(s.Protected) {
				s.Protected = next
				changed = true
			}
		}
		for _, a := range callee.Allocs {
			out := Alloc{Site: a.Site, Path: pushPath(a.Path, calleeName), Pos: a.Pos, Suppressed: a.Suppressed}
			if imported || out.Pos == token.NoPos {
				out.Pos = e.Site.Pos()
			}
			if next := addAlloc(s.Allocs, out); len(next) != len(s.Allocs) {
				s.Allocs = next
				changed = true
			}
		}
		for _, nd := range callee.Nondet {
			out := Nondet{Site: nd.Site, Path: pushPath(nd.Path, calleeName), Pos: nd.Pos, Suppressed: nd.Suppressed}
			if imported || out.Pos == token.NoPos {
				out.Pos = e.Site.Pos()
			}
			if next := addNondet(s.Nondet, out); len(next) != len(s.Nondet) {
				s.Nondet = next
				changed = true
			}
		}
		if callee.PollsCancel && !s.PollsCancel {
			s.PollsCancel = true
			changed = true
		}
		if callee.MutRecv || len(callee.MutParams) > 0 {
			if c.foldMutTargets(s, n, e, callee) {
				changed = true
			}
		}
	}
	if changed {
		sortSummary(s)
	}
	return changed
}

// foldMutTargets propagates mutates-receiver/param facts through a call:
// s.helper() where helper mutates its receiver means the caller mutates s.
func (c *computer) foldMutTargets(s *Summary, n *callgraph.Node, e callgraph.Edge, callee *Summary) bool {
	sig := n.Type(c.info)
	changed := false
	classify := func(expr ast.Expr) {
		base := baseIdent(expr)
		if base == nil || sig == nil {
			return
		}
		v, _ := c.info.Uses[base].(*types.Var)
		if v == nil {
			return
		}
		if sig.Recv() != nil && v == sig.Recv() && !s.MutRecv {
			s.MutRecv = true
			changed = true
		}
		if i := paramIndex(sig, v); i >= 0 {
			if next := addInt(s.MutParams, i); len(next) != len(s.MutParams) {
				s.MutParams = next
				changed = true
			}
		}
	}
	if callee.MutRecv {
		if sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr); ok {
			classify(sel.X)
		}
	}
	for _, i := range callee.MutParams {
		if i < len(e.Site.Args) {
			classify(e.Site.Args[i])
		}
	}
	return changed
}

// mapGuards rewrites a callee effect's guard set into the caller's frame:
// literal false discharges the effect, literal true drops the guard, a bool
// parameter of the caller renames the guard, and anything else is
// conservatively treated as possibly-true (guard dropped, effect kept).
func (c *computer) mapGuards(guards []int, site *ast.CallExpr, params *types.Tuple, bools []boolParam) (out []int, live bool) {
	for _, g := range guards {
		arg := argAt(site, params, g)
		if arg == nil {
			continue // variadic or mismatched call: conservative
		}
		if tv, ok := c.info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
			if constant.BoolVal(tv.Value) {
				continue // literally true: guard satisfied, effect stays
			}
			return nil, false // literally false: effect cannot happen here
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v, ok := c.info.Uses[id].(*types.Var); ok {
				renamed := false
				for _, bp := range bools {
					if bp.v == v {
						out = addInt(out, bp.index)
						renamed = true
						break
					}
				}
				if renamed {
					continue
				}
			}
		}
		// Unknown truth value: may be true — drop the guard, keep the effect.
	}
	return out, true
}

// argAt returns the argument expression bound to parameter index i, nil when
// the call shape does not line up (spread call, variadic overflow).
func argAt(call *ast.CallExpr, params *types.Tuple, i int) ast.Expr {
	if params == nil || i >= params.Len() || call.Ellipsis != token.NoPos {
		return nil
	}
	if len(call.Args) != params.Len() {
		return nil
	}
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

func calleeParams(info *types.Info, e callgraph.Edge) *types.Tuple {
	if e.Ext != nil {
		if sig := analysis.Signature(e.Ext); sig != nil {
			return sig.Params()
		}
		return nil
	}
	if e.Callee.Fn != nil {
		if sig := analysis.Signature(e.Callee.Fn); sig != nil {
			return sig.Params()
		}
		return nil
	}
	if sig, ok := info.TypeOf(e.Callee.Lit).(*types.Signature); ok {
		return sig.Params()
	}
	return nil
}

// boolParam is one boolean parameter eligible as a guard.
type boolParam struct {
	v     *types.Var
	index int
}

func boolParams(n *callgraph.Node, info *types.Info) []boolParam {
	sig := n.Type(info)
	if sig == nil {
		return nil
	}
	var out []boolParam
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if t, ok := types.Unalias(params.At(i).Type()).(*types.Basic); ok && t.Kind() == types.Bool {
			out = append(out, boolParam{v: params.At(i), index: i})
		}
	}
	return out
}

// guardsAt returns the bool parameters that must be true for the statement
// at pos to execute: those parameters p for which the site's basic block is
// unreachable from entry once every p-false branch edge is removed. This
// covers both `if p { site }` and the early-return `if !p { return }; site`
// shape the arrival routines use.
func (c *computer) guardsAt(n *callgraph.Node, bools []boolParam, pos token.Pos) []int {
	if len(bools) == 0 {
		return nil
	}
	g := c.graphOf(n)
	blk, _, ok := g.BlockOf(pos)
	if !ok {
		return nil
	}
	var out []int
	for _, bp := range bools {
		if !reachableUnderFalse(g, c.info, bp.v, blk) {
			out = addInt(out, bp.index)
		}
	}
	return out
}

// reachableUnderFalse reports whether target can execute when param v is
// false: a DFS from entry that skips the true-successor of blocks ending in
// the condition `v` and the false-successor of blocks ending in `!v`.
func reachableUnderFalse(g *cfg.Graph, info *types.Info, v *types.Var, target *cfg.Block) bool {
	seen := make([]bool, len(g.Blocks))
	var stack []*cfg.Block
	seen[g.Entry.Index] = true
	stack = append(stack, g.Entry)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == target {
			return true
		}
		skip := -1 // successor index pruned under v == false
		if len(blk.Nodes) > 0 && len(blk.Succs) >= 2 {
			switch condOf(info, blk.Nodes[len(blk.Nodes)-1], v) {
			case condVar:
				skip = 0 // true-branch (Succs[0]) dead
			case condNotVar:
				skip = 1 // false-branch dead
			}
		}
		for i, s := range blk.Succs {
			if i == skip || seen[s.Index] {
				continue
			}
			seen[s.Index] = true
			stack = append(stack, s)
		}
	}
	return false
}

type condKind int

const (
	condOther condKind = iota
	condVar
	condNotVar
)

// condOf classifies a block-terminating node as the condition `v`, `!v`, or
// anything else.
func condOf(info *types.Info, n ast.Node, v *types.Var) condKind {
	e, ok := n.(ast.Expr)
	if !ok {
		return condOther
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if info.Uses[x] == v {
			return condVar
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == v {
				return condNotVar
			}
		}
	}
	return condOther
}

// protectedChain walks a write target's selector/index chain looking for a
// value of a protected type. Returns the protected type's name, the field
// being written (when the outermost selector names one), and whether the
// chain hit protected state.
func protectedChain(info *types.Info, e ast.Expr) (typeName, field string, hit bool) {
	outerField := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if outerField == "" {
				outerField = x.Sel.Name
			}
			if name := protectedTypeName(info.TypeOf(x.X)); name != "" {
				return name, outerField, true
			}
			e = x.X
		case *ast.IndexExpr:
			if name := protectedTypeName(info.TypeOf(x.X)); name != "" {
				return name, outerField, true
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if name := protectedTypeName(info.TypeOf(x)); name != "" {
				return name, outerField, true
			}
			return "", "", false
		default:
			return "", "", false
		}
	}
}

// protectedTypeName returns the named-struct type's name when t (pointers
// stripped) carries a mutEpoch field — the repo's marker for epoch-guarded
// scheduler state — and "" otherwise.
func protectedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	st, ok := types.Unalias(named.Underlying()).(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "mutEpoch" {
			return named.Obj().Name()
		}
	}
	return ""
}

// IsCancelPoll reports whether the call is <expr>.Load() on a
// sync/atomic.Bool — the cancellation-poll idiom PR 8 threaded through the
// engines. Exported for the cancelpoll pass, which must recognize the same
// idiom the summaries record.
func IsCancelPoll(info *types.Info, call *ast.CallExpr) bool {
	return isAtomicBoolLoad(info, call)
}

func isAtomicBoolLoad(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Bool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// nondetCalls lists banned package-level calls, mirroring the nondet pass.
var nondetCalls = map[string]string{
	"time.Now":     "wall-clock read",
	"time.Since":   "wall-clock read",
	"time.Until":   "wall-clock read",
	"os.Getenv":    "environment read",
	"os.LookupEnv": "environment read",
	"os.Environ":   "environment read",
}

var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// errorValued reports whether the signature returns exactly one value that
// is itself a function returning an error — the factory shape errprop v3
// tracks through one call level.
func errorValued(sig *types.Signature) bool {
	if sig.Results().Len() != 1 {
		return false
	}
	inner, ok := types.Unalias(sig.Results().At(0).Type()).(*types.Signature)
	if !ok {
		return false
	}
	res := inner.Results()
	for i := 0; i < res.Len(); i++ {
		if analysis.IsErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// walk visits the node's own statements, skipping nested function literals
// (they are separate call-graph nodes with their own summaries).
func walk(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			visit(lit)
			return false
		}
		if x != nil {
			visit(x)
		}
		return true
	})
}

// capturedVars returns the outer local variables a literal references.
func capturedVars(lit *ast.FuncLit, info *types.Info) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	inside := func(pos token.Pos) bool { return lit.Pos() <= pos && pos < lit.End() }
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || seen[v] || v.IsField() || inside(v.Pos()) {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := types.Unalias(t).(*types.Pointer)
	return ok
}

// isLocalValue reports whether writes through v stay caller-invisible: a
// non-pointer, non-reference-typed value.
func isLocalValue(v *types.Var) bool {
	switch types.Unalias(v.Type().Underlying()).(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return false
	}
	return true
}

func paramIndex(sig *types.Signature, v *types.Var) int {
	if sig == nil {
		return -1
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return i
		}
	}
	return -1
}

func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

func pushPath(path []string, frame string) []string {
	if len(path) >= maxPath {
		return path
	}
	out := make([]string, 0, len(path)+1)
	out = append(out, frame)
	out = append(out, path...)
	return out
}

// ChainString renders an effect path for diagnostics: "via a → b".
func ChainString(path []string) string {
	if len(path) == 0 {
		return ""
	}
	return " via " + strings.Join(path, " → ")
}

func addInt(list []int, x int) []int {
	for _, y := range list {
		if y == x {
			return list
		}
	}
	out := append(append([]int(nil), list...), x)
	sort.Ints(out)
	return out
}

func mergeInts(a, b []int) []int {
	out := a
	for _, x := range b {
		out = addInt(out, x)
	}
	return out
}

func guardKey(g []int) string {
	var sb strings.Builder
	for _, x := range g {
		fmt.Fprintf(&sb, "%d,", x)
	}
	return sb.String()
}

func addEffect(list []Effect, e Effect) []Effect {
	if len(list) >= maxEntries {
		return list
	}
	for _, x := range list {
		if x.Site == e.Site && x.Type == e.Type && guardKey(x.Guards) == guardKey(e.Guards) {
			return list
		}
	}
	return append(list, e)
}

func addAlloc(list []Alloc, a Alloc) []Alloc {
	if len(list) >= maxEntries {
		return list
	}
	for _, x := range list {
		if x.Site == a.Site {
			return list
		}
	}
	return append(list, a)
}

func addNondet(list []Nondet, n Nondet) []Nondet {
	if len(list) >= maxEntries {
		return list
	}
	for _, x := range list {
		if x.Site == n.Site {
			return list
		}
	}
	return append(list, n)
}

func sortSummary(s *Summary) {
	sort.Slice(s.Protected, func(i, j int) bool {
		if s.Protected[i].Site != s.Protected[j].Site {
			return s.Protected[i].Site < s.Protected[j].Site
		}
		return guardKey(s.Protected[i].Guards) < guardKey(s.Protected[j].Guards)
	})
	sort.Slice(s.Allocs, func(i, j int) bool { return s.Allocs[i].Site < s.Allocs[j].Site })
	sort.Slice(s.Nondet, func(i, j int) bool { return s.Nondet[i].Site < s.Nondet[j].Site })
	sort.Ints(s.MutParams)
}
