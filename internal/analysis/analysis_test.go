package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSrc type-checks one source string into a Unit.
func loadSrc(t *testing.T, filename, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{Path: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// callFlagger reports every call expression; named "errprop" so the
// allow-discard directive applies to it.
var callFlagger = &Analyzer{
	Name: "errprop",
	Doc:  "test analyzer flagging every call",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					p.Reportf(c.Pos(), "call flagged")
				}
				return true
			})
		}
		return nil
	},
}

const suppressionSrc = `package p

func f() {}

func g() {
	f() //ftlint:allow-discard trailing: covers this line and the next
	f()
	//ftlint:allow-discard own line: covers the line below
	f()
	f()
}
`

func TestCheckSuppression(t *testing.T) {
	u := loadSrc(t, "p.go", suppressionSrc)
	diags, err := Check([]*Unit{u}, []*Analyzer{callFlagger})
	if err != nil {
		t.Fatal(err)
	}
	// Lines 6, 7 (trailing directive covers both) and 9 (directive above)
	// are suppressed; only the call on line 10 survives.
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if diags[0].Pos.Line != 10 {
		t.Errorf("surviving diagnostic on line %d, want 10", diags[0].Pos.Line)
	}
	if diags[0].Analyzer != "errprop" {
		t.Errorf("analyzer = %q, want errprop", diags[0].Analyzer)
	}
}

const staleSrc = `package p

//ftlint:allow-discard nothing here to suppress
//ftlint:allow-nondet its analyzer did not run, so not stale-checked
func f() {}
`

func TestCheckStaleDirective(t *testing.T) {
	u := loadSrc(t, "p.go", staleSrc)
	diags, err := Check([]*Unit{u}, []*Analyzer{callFlagger})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1 stale-directive report", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != DirectiveAnalyzerName || d.Pos.Line != 3 || !strings.Contains(d.Message, "stale") {
		t.Errorf("unexpected diagnostic %v", d)
	}
}

const malformedSrc = `package p

//ftlint:allow-discrad typo in the keyword
//ftlint:allow-discard
func f() {}
`

func TestCheckMalformedDirectives(t *testing.T) {
	u := loadSrc(t, "p.go", malformedSrc)
	diags, err := Check([]*Unit{u}, []*Analyzer{callFlagger})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "unknown directive //ftlint:allow-discrad") {
		t.Errorf("diags[0] = %v, want unknown-directive report", diags[0])
	}
	if !strings.Contains(diags[1].Message, "needs a reason") {
		t.Errorf("diags[1] = %v, want missing-reason report", diags[1])
	}
}

func TestCheckSkipsTestFiles(t *testing.T) {
	u := loadSrc(t, "p_test.go", "package p\n\nfunc f() {}\n\nfunc g() { f() }\n")
	diags, err := Check([]*Unit{u}, []*Analyzer{callFlagger})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics %v from a test file, want 0", len(diags), diags)
	}
}

func TestIsCriticalPackage(t *testing.T) {
	cases := map[string]bool{
		"ftsched/internal/core":    true,
		"ftsched/internal/sched":   true,
		"ftsched/internal/certify": true,
		"core":                     true,
		"ftsched/internal/obs":     false,
		"ftsched/internal/corex":   false,
		"sched/util":               false,
	}
	for path, want := range cases {
		if got := IsCriticalPackage(path); got != want {
			t.Errorf("IsCriticalPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
