// Package cfg builds intraprocedural control-flow graphs for Go function
// bodies on the standard library alone, mirroring the shape (though not the
// API) of golang.org/x/tools/go/cfg.
//
// A Graph is a list of basic blocks. Block zero is the entry; a single
// synthetic exit block collects every return, every fall-off-the-end, and
// every statically-recognized panic. Each block holds the statements and
// control expressions executed unconditionally once the block is entered,
// in execution order:
//
//   - plain statements are appended whole;
//   - an if or for condition is appended as its expression, with the block's
//     successors encoding the branch;
//   - a range statement is appended as itself in the loop-head block (it
//     re-binds the iteration variables and tests for exhaustion each trip);
//   - switch/select put each case body in its own block, with case-clause
//     expressions in the head.
//
// Deferred calls run at function exit in reverse order, whatever path
// reaches it; the builder therefore re-appends every DeferStmt's call into
// the exit block (field Defers) so analyses of the exit see them.
//
// The graph is deterministic: block indices and node order depend only on
// the syntax tree.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.body", ... for debugging and goldens
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists the call expressions of every defer statement in the
	// body, in source order. They are also appended to Exit.Nodes.
	Defers []*ast.CallExpr
}

// New builds the CFG of a function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	cur := b.stmtList(g.Entry, body.List)
	b.jump(cur, g.Exit)
	for _, d := range g.Defers {
		g.Exit.Nodes = append(g.Exit.Nodes, d)
	}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// labelInfo tracks one label's goto target and, when it labels a loop or
// switch, the break/continue targets.
type labelInfo struct {
	target       *Block // goto destination
	brk, cont    *Block
	pendingGotos []*Block // forward gotos waiting for the label
}

// builder threads the construction state.
type builder struct {
	g      *Graph
	brk    *Block // innermost break target
	cont   *Block // innermost continue target
	labels map[string]*labelInfo
	// curLabel is set while processing the statement a label annotates, so
	// the labeled loop/switch can register its break/continue targets.
	curLabel string
	// ftFrom is the block a just-seen fallthrough statement terminated;
	// cases() wires it to the next case body.
	ftFrom *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge cur→dst unless cur is nil (unreachable).
func (b *builder) jump(cur, dst *Block) {
	if cur == nil || dst == nil {
		return
	}
	for _, s := range cur.Succs {
		if s == dst {
			return
		}
	}
	cur.Succs = append(cur.Succs, dst)
}

// stmtList threads the statements through cur, returning the block that
// falls out the end (nil when control cannot fall through).
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// add appends a node to cur when reachable.
func (b *builder) add(cur *Block, n ast.Node) {
	if cur != nil && n != nil {
		cur.Nodes = append(cur.Nodes, n)
	}
}

func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	if s == nil {
		return cur
	}
	// Unreachable code still gets blocks (so every node lives somewhere),
	// rooted in a fresh predecessor-less block.
	if cur == nil {
		cur = b.newBlock("unreachable")
	}
	switch s := s.(type) {
	case *ast.ReturnStmt:
		b.add(cur, s)
		b.jump(cur, b.g.Exit)
		return nil
	case *ast.BranchStmt:
		return b.branch(cur, s)
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)
	case *ast.IfStmt:
		return b.ifStmt(cur, s)
	case *ast.ForStmt:
		return b.forStmt(cur, s)
	case *ast.RangeStmt:
		return b.rangeStmt(cur, s)
	case *ast.SwitchStmt:
		return b.switchStmt(cur, s)
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(cur, s)
	case *ast.SelectStmt:
		return b.selectStmt(cur, s)
	case *ast.LabeledStmt:
		return b.labeledStmt(cur, s)
	case *ast.DeferStmt:
		b.add(cur, s)
		b.g.Defers = append(b.g.Defers, s.Call)
		return cur
	case *ast.ExprStmt:
		b.add(cur, s)
		if isPanicCall(s.X) {
			b.jump(cur, b.g.Exit)
			return nil
		}
		return cur
	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		b.add(cur, s)
		return cur
	}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) branch(cur *Block, s *ast.BranchStmt) *Block {
	b.add(cur, s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.brk != nil {
				b.jump(cur, li.brk)
			}
		} else {
			b.jump(cur, b.brk)
		}
		return nil
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.cont != nil {
				b.jump(cur, li.cont)
			}
		} else {
			b.jump(cur, b.cont)
		}
		return nil
	case token.GOTO:
		li := b.label(s.Label.Name)
		if li.target != nil {
			b.jump(cur, li.target)
		} else {
			li.pendingGotos = append(li.pendingGotos, cur)
		}
		return nil
	case token.FALLTHROUGH:
		// cases() wires the edge to the next case body; the statement
		// itself terminates the block.
		b.ftFrom = cur
		return nil
	}
	return cur
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

func (b *builder) labeledStmt(cur *Block, s *ast.LabeledStmt) *Block {
	li := b.label(s.Label.Name)
	target := b.newBlock("label." + s.Label.Name)
	b.jump(cur, target)
	li.target = target
	for _, p := range li.pendingGotos {
		b.jump(p, target)
	}
	li.pendingGotos = nil
	prev := b.curLabel
	b.curLabel = s.Label.Name
	out := b.stmt(target, s.Stmt)
	b.curLabel = prev
	return out
}

func (b *builder) ifStmt(cur *Block, s *ast.IfStmt) *Block {
	b.add(cur, s.Init)
	b.add(cur, s.Cond)
	then := b.newBlock("if.then")
	b.jump(cur, then)
	done := b.newBlock("if.done")
	thenOut := b.stmtList(then, s.Body.List)
	b.jump(thenOut, done)
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.jump(cur, els)
		elseOut := b.stmt(els, s.Else)
		b.jump(elseOut, done)
	} else {
		b.jump(cur, done)
	}
	if len(done.Preds) == 0 && thenOut == nil && s.Else != nil {
		// Both arms terminated: done is unreachable but kept so trailing
		// statements still get blocks.
		done.Kind = "if.done.unreachable"
	}
	return done
}

func (b *builder) forStmt(cur *Block, s *ast.ForStmt) *Block {
	b.add(cur, s.Init)
	head := b.newBlock("for.head")
	b.jump(cur, head)
	b.add(head, s.Cond)
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	b.jump(head, body)
	if s.Cond != nil {
		b.jump(head, done)
	}
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		b.add(post, s.Post)
		b.jump(post, head)
	}
	out := b.pushLoop(done, post, func() *Block {
		return b.stmtList(body, s.Body.List)
	})
	b.jump(out, post)
	return done
}

func (b *builder) rangeStmt(cur *Block, s *ast.RangeStmt) *Block {
	head := b.newBlock("range.head")
	b.jump(cur, head)
	// The range statement itself models the per-iteration variable binding
	// and exhaustion test.
	b.add(head, s)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head, body)
	b.jump(head, done)
	out := b.pushLoop(done, head, func() *Block {
		return b.stmtList(body, s.Body.List)
	})
	b.jump(out, head)
	return done
}

// pushLoop runs f with break/continue targets bound, honoring an enclosing
// label.
func (b *builder) pushLoop(brk, cont *Block, f func() *Block) *Block {
	savedBrk, savedCont := b.brk, b.cont
	b.brk, b.cont = brk, cont
	if b.curLabel != "" {
		li := b.label(b.curLabel)
		li.brk, li.cont = brk, cont
		b.curLabel = ""
	}
	out := f()
	b.brk, b.cont = savedBrk, savedCont
	return out
}

func (b *builder) switchStmt(cur *Block, s *ast.SwitchStmt) *Block {
	b.add(cur, s.Init)
	b.add(cur, s.Tag)
	return b.cases(cur, s.Body.List, "switch")
}

func (b *builder) typeSwitchStmt(cur *Block, s *ast.TypeSwitchStmt) *Block {
	b.add(cur, s.Init)
	b.add(cur, s.Assign)
	return b.cases(cur, s.Body.List, "typeswitch")
}

// cases wires case-clause bodies: head branches to every case; a missing
// default lets the head fall through to done; fallthrough edges run to the
// next case body.
func (b *builder) cases(head *Block, clauses []ast.Stmt, kind string) *Block {
	done := b.newBlock(kind + ".done")
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			b.add(head, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock(fmt.Sprintf("%s.case%d", kind, i))
		b.jump(head, bodies[i])
	}
	if !hasDefault {
		b.jump(head, done)
	}
	savedBrk := b.brk
	b.brk = done
	if b.curLabel != "" {
		li := b.label(b.curLabel)
		li.brk = done
		b.curLabel = ""
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.ftFrom = nil
		out := b.stmtList(bodies[i], cc.Body)
		if b.ftFrom != nil && i+1 < len(bodies) {
			// An explicit fallthrough jumps from its block to the next
			// case's body.
			b.jump(b.ftFrom, bodies[i+1])
		}
		b.ftFrom = nil
		b.jump(out, done)
	}
	b.brk = savedBrk
	return done
}

func (b *builder) selectStmt(cur *Block, s *ast.SelectStmt) *Block {
	done := b.newBlock("select.done")
	savedBrk := b.brk
	b.brk = done
	if b.curLabel != "" {
		li := b.label(b.curLabel)
		li.brk = done
		b.curLabel = ""
	}
	for i, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.newBlock(fmt.Sprintf("select.case%d", i))
		b.jump(cur, body)
		b.add(body, cc.Comm)
		out := b.stmtList(body, cc.Body)
		b.jump(out, done)
	}
	if len(s.Body.List) == 0 {
		// select {} blocks forever.
		b.jump(cur, b.g.Exit)
	}
	b.brk = savedBrk
	if len(done.Preds) == 0 && len(s.Body.List) == 0 {
		return nil
	}
	return done
}

// Reachable returns, per block index, whether the block is reachable from
// from by following successor edges (from itself included).
func (g *Graph) Reachable(from *Block) []bool {
	seen := make([]bool, len(g.Blocks))
	var stack []*Block
	seen[from.Index] = true
	stack = append(stack, from)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// BlockOf returns the block whose Nodes contain the smallest node spanning
// pos, and the index of that node within the block; ok is false when pos is
// in no recorded node (an unreachable fragment or a control sub-expression
// the builder did not record).
func (g *Graph) BlockOf(pos token.Pos) (blk *Block, idx int, ok bool) {
	bestSpan := token.Pos(-1)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				span := n.End() - n.Pos()
				if bestSpan < 0 || span < bestSpan {
					blk, idx, ok = b, i, true
					bestSpan = span
				}
			}
		}
	}
	return blk, idx, ok
}

// Dominators computes the dominator relation with the classic iterative
// bitset algorithm (fine at function scale). dom[i] has bit j set when
// block j dominates block i. Unreachable blocks dominate nothing and are
// dominated by everything (vacuous truth on no paths).
func (g *Graph) Dominators() [][]bool {
	n := len(g.Blocks)
	dom := make([][]bool, n)
	reach := g.Reachable(g.Entry)
	for i := range dom {
		dom[i] = make([]bool, n)
		if i == g.Entry.Index {
			dom[i][i] = true
			continue
		}
		for j := range dom[i] {
			dom[i][j] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range g.Blocks {
			if blk == g.Entry || !reach[blk.Index] {
				continue
			}
			next := make([]bool, n)
			first := true
			for _, p := range blk.Preds {
				if !reach[p.Index] {
					continue
				}
				if first {
					copy(next, dom[p.Index])
					first = false
				} else {
					for j := range next {
						next[j] = next[j] && dom[p.Index][j]
					}
				}
			}
			if first {
				// Reachable only via unreachable preds cannot happen; keep all.
				continue
			}
			next[blk.Index] = true
			if !boolsEqual(next, dom[blk.Index]) {
				dom[blk.Index] = next
				changed = true
			}
		}
	}
	return dom
}

func boolsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the graph for golden tests: one line per block with its
// kind, node summaries, and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, " [%s]", nodeSummary(n))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" →")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nodeSummary names a node by syntactic kind, compactly and stably.
func nodeSummary(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.ReturnStmt:
		return "return"
	case *ast.BranchStmt:
		return strings.ToLower(n.Tok.String())
	case *ast.ExprStmt:
		if isPanicCall(n.X) {
			return "panic"
		}
		return "call"
	case *ast.SendStmt:
		return "send"
	case *ast.GoStmt:
		return "go"
	case *ast.DeferStmt:
		return "defer"
	case *ast.RangeStmt:
		return "range"
	case *ast.CallExpr:
		return "deferred-call"
	case ast.Expr:
		return "cond"
	default:
		return fmt.Sprintf("%T", n)
	}
}
