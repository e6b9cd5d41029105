package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// compute parses and type-checks src as one package and runs the summary
// fixpoint with no imported facts.
func compute(t *testing.T, src string) (*Info, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	typesInfo := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, typesInfo)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Compute(fset, []*ast.File{f}, pkg, typesInfo, nil), typesInfo
}

// forName returns the summary of the declared function with that name.
func forName(t *testing.T, info *Info, name string) *Summary {
	t.Helper()
	for n, s := range info.Local {
		if n.Name == name {
			return s
		}
	}
	t.Fatalf("no summary for %q", name)
	return nil
}

// The commit-bool sharing pattern from the scheduler core: one arrival
// routine serves both the pure evaluation path (commit=false) and the
// mutating commit path (commit=true).
const commitSrc = `package p
type schedState struct {
	mutEpoch int
	deliv    int
}
func arrival(s *schedState, commit bool) {
	if !commit {
		return
	}
	s.deliv++
	s.mutEpoch++
}
func evaluate(s *schedState) { arrival(s, false) }
func commitStep(s *schedState) { arrival(s, true) }
func relay(s *schedState, apply bool) { arrival(s, apply) }
func deepEvaluate(s *schedState) { relay(s, false) }
`

func TestGuardDischargeChain(t *testing.T) {
	info, _ := compute(t, commitSrc)

	// The arrival routine itself: both mutations guarded by param 1 (commit).
	arr := forName(t, info, "arrival")
	if len(arr.Protected) != 2 {
		t.Fatalf("arrival Protected = %+v, want 2 effects", arr.Protected)
	}
	for _, e := range arr.Protected {
		if !reflect.DeepEqual(e.Guards, []int{1}) {
			t.Errorf("arrival effect %q guards = %v, want [1]", e.Site, e.Guards)
		}
	}

	// Literal false discharges the effects entirely.
	if s := forName(t, info, "evaluate"); len(s.Protected) != 0 {
		t.Errorf("evaluate Protected = %+v, want none (discharged by literal false)", s.Protected)
	}
	// Literal true satisfies the guard: the effects become unconditional.
	cs := forName(t, info, "commitStep")
	if len(cs.Protected) != 2 {
		t.Fatalf("commitStep Protected = %+v, want 2", cs.Protected)
	}
	for _, e := range cs.Protected {
		if len(e.Guards) != 0 {
			t.Errorf("commitStep effect %q guards = %v, want unconditional", e.Site, e.Guards)
		}
	}
	// Passing the caller's own bool param renames the guard into its frame…
	rl := forName(t, info, "relay")
	for _, e := range rl.Protected {
		if !reflect.DeepEqual(e.Guards, []int{1}) {
			t.Errorf("relay effect %q guards = %v, want [1] (renamed)", e.Site, e.Guards)
		}
	}
	// …so discharge still works one more level up.
	if s := forName(t, info, "deepEvaluate"); len(s.Protected) != 0 {
		t.Errorf("deepEvaluate Protected = %+v, want none (discharged through relay)", s.Protected)
	}
}

func TestUnknownGuardArgumentIsConservative(t *testing.T) {
	info, _ := compute(t, `package p
type schedState struct{ mutEpoch int }
func arrival(s *schedState, commit bool) {
	if commit {
		s.mutEpoch++
	}
}
func maybe(s *schedState, x int) { arrival(s, x > 0) }
`)
	s := forName(t, info, "maybe")
	if len(s.Protected) != 1 {
		t.Fatalf("maybe Protected = %+v, want 1 (unknown guard keeps the effect)", s.Protected)
	}
	if len(s.Protected[0].Guards) != 0 {
		t.Errorf("guards = %v, want none (dropped, not renamed)", s.Protected[0].Guards)
	}
	if !reflect.DeepEqual(s.Protected[0].Path, []string{"arrival"}) {
		t.Errorf("path = %v, want [arrival]", s.Protected[0].Path)
	}
}

func TestPollsCancelPropagates(t *testing.T) {
	info, _ := compute(t, `package p
import "sync/atomic"
type opts struct{ cancel atomic.Bool }
func (o *opts) canceled() bool { return o.cancel.Load() }
func loopBody(o *opts) bool { return o.canceled() }
func pure(x int) int { return x + 1 }
`)
	if !forName(t, info, "(*opts).canceled").PollsCancel {
		t.Error("canceled: PollsCancel = false, want true (direct atomic.Bool Load)")
	}
	if !forName(t, info, "loopBody").PollsCancel {
		t.Error("loopBody: PollsCancel = false, want true (via callee)")
	}
	if forName(t, info, "pure").PollsCancel {
		t.Error("pure: PollsCancel = true, want false")
	}
}

func TestAllocClasses(t *testing.T) {
	info, _ := compute(t, `package p
import "fmt"
func sprintf(x int) string { return fmt.Sprintf("%d", x) }
func mapLit() map[string]int { return map[string]int{} }
func closure(x int) func() int { return func() int { return x } }
func staticClosure() func() int { return func() int { return 1 } }
func growth(items []int) []int {
	var out []int
	for _, it := range items {
		out = append(out, it)
	}
	return out
}
func hinted(items []int) []int {
	out := make([]int, 0, len(items))
	for _, it := range items {
		out = append(out, it)
	}
	return out
}
func sized(n int) []int { return make([]int, n) }
`)
	wantOne := func(name, substr string) {
		t.Helper()
		s := forName(t, info, name)
		if len(s.Allocs) != 1 || !strings.Contains(s.Allocs[0].Site, substr) {
			t.Errorf("%s Allocs = %+v, want one containing %q", name, s.Allocs, substr)
		}
	}
	wantOne("sprintf", "fmt.Sprintf call")
	wantOne("mapLit", "map literal")
	wantOne("closure", "escaping closure")
	wantOne("growth", "append growth to out")
	for _, clean := range []string{"staticClosure", "hinted", "sized"} {
		if s := forName(t, info, clean); len(s.Allocs) != 0 {
			t.Errorf("%s Allocs = %+v, want none", clean, s.Allocs)
		}
	}
}

func TestErrorValued(t *testing.T) {
	info, _ := compute(t, `package p
func factory() func() error { return func() error { return nil } }
func plain() int { return 0 }
`)
	if !forName(t, info, "factory").ErrorValued {
		t.Error("factory: ErrorValued = false, want true")
	}
	if forName(t, info, "plain").ErrorValued {
		t.Error("plain: ErrorValued = true, want false")
	}
}

func TestRecursionTerminatesAndKeepsEffects(t *testing.T) {
	info, _ := compute(t, `package p
type schedState struct{ mutEpoch int }
func ping(s *schedState, n int) {
	s.mutEpoch++
	if n > 0 {
		pong(s, n-1)
	}
}
func pong(s *schedState, n int) { ping(s, n) }
`)
	for _, name := range []string{"ping", "pong"} {
		if s := forName(t, info, name); len(s.Protected) == 0 {
			t.Errorf("%s Protected empty, want the mutual-recursion effect to survive the fixpoint", name)
		}
	}
}

func TestSuppressionPropagatesButExportDrops(t *testing.T) {
	info, _ := compute(t, `package p
type schedState struct{ mutEpoch int }
func sanctioned(s *schedState) {
	s.mutEpoch++ //ftlint:epoch-pure test fixture: proven safe by construction
}
func caller(s *schedState) { sanctioned(s) }
func tainted(s *schedState) { s.mutEpoch = 0 }
`)
	// Locally the suppressed effect is still visible (passes report it at the
	// sanctioned line, where the directive silences it)…
	sanc := forName(t, info, "sanctioned")
	if len(sanc.Protected) != 1 || !sanc.Protected[0].Suppressed {
		t.Fatalf("sanctioned Protected = %+v, want one suppressed effect", sanc.Protected)
	}
	call := forName(t, info, "caller")
	if len(call.Protected) != 1 || !call.Protected[0].Suppressed {
		t.Fatalf("caller Protected = %+v, want the suppressed effect propagated", call.Protected)
	}
	// …but the exported facts drop it, so importers never see the site.
	facts := info.Export()
	for _, name := range []string{"p.sanctioned", "p.caller"} {
		if s, ok := facts[name]; ok && len(s.Protected) > 0 {
			t.Errorf("Export()[%s].Protected = %+v, want suppressed entries stripped", name, s.Protected)
		}
	}
	if s := facts["p.tainted"]; s == nil || len(s.Protected) != 1 {
		t.Errorf("Export()[p.tainted] = %+v, want the unsuppressed effect kept", facts["p.tainted"])
	}
}

func TestImportedFactsFold(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
import "q"
func caller() { q.Helper() }
`
	// Hand-build a fake dependency q with one nondet-tainted, allocating
	// function, then check the caller's summary folds the imported facts at
	// the call site.
	qpkg := types.NewPackage("q", "q")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	helper := types.NewFunc(token.NoPos, qpkg, "Helper", sig)
	qpkg.Scope().Insert(helper)
	qpkg.MarkComplete()

	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	typesInfo := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: mapImporter{"q": qpkg}}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, typesInfo)
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]*Summary{
		"q.Helper": {
			Nondet:      []Nondet{{Site: "q.go:3: wall-clock read time.Now"}},
			Allocs:      []Alloc{{Site: "q.go:4: fmt.Sprintf call"}},
			PollsCancel: true,
		},
	}
	info := Compute(fset, []*ast.File{f}, pkg, typesInfo, imported)
	s := forName(t, info, "caller")
	if len(s.Nondet) != 1 || !reflect.DeepEqual(s.Nondet[0].Path, []string{"q.Helper"}) {
		t.Errorf("caller Nondet = %+v, want the imported taint with path [q.Helper]", s.Nondet)
	}
	if len(s.Allocs) != 1 || s.Nondet[0].Pos == token.NoPos {
		t.Errorf("caller Allocs = %+v with pos %v, want the imported alloc at the call site", s.Allocs, s.Nondet[0].Pos)
	}
	if !s.PollsCancel {
		t.Error("caller PollsCancel = false, want true via imported callee")
	}
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return importer.Default().Import(path)
}
