package passes_test

import (
	"go/ast"
	"go/types"
	"testing"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/load"
	"ftsched/internal/analysis/passes/epochpurity"
	"ftsched/internal/analysis/passes/hotalloc"
)

// TestRootsResolve loads the packages the epochpurity and hotalloc root
// tables name and requires every entry to match a declaration. A root
// that matches nothing switches its check off without a diagnostic, so a
// renamed type or method must fail here instead.
func TestRootsResolve(t *testing.T) {
	units, err := load.Packages("../../..", "./internal/core", "./internal/certify", "./internal/sim", "./internal/pressure")
	if err != nil {
		t.Fatal(err)
	}
	// decls[base] holds each function as "Recv.Name", and "Name" alone.
	decls := map[string]map[string]bool{}
	for _, u := range units {
		base := analysis.PkgBase(u.Pkg.Path())
		decls[base] = map[string]bool{}
		for _, f := range analysis.NonTestFiles(u.Fset, u.Files) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[base][fd.Name.Name] = true
				if fn, _ := u.Info.Defs[fd.Name].(*types.Func); fn != nil {
					if named := analysis.NamedRecv(fn); named != nil {
						decls[base][named.Obj().Name()+"."+fd.Name.Name] = true
					}
				}
			}
		}
	}
	check := func(pass, base, recv, name string) {
		t.Helper()
		pkg, ok := decls[base]
		if !ok {
			t.Errorf("%s roots package %q, which this test does not load", pass, base)
			return
		}
		key := name
		if recv != "" {
			key = recv + "." + name
		}
		if !pkg[key] {
			t.Errorf("%s root %s in package %s matches no declaration", pass, key, base)
		}
	}
	for base, specs := range epochpurity.Roots {
		for _, s := range specs {
			check("epochpurity", base, s.Recv, s.Name)
		}
	}
	for base, specs := range hotalloc.Roots {
		for _, s := range specs {
			check("hotalloc", base, s.Recv, s.Name)
		}
	}
}
