// Package load turns Go source into the type-checked units the ftlint
// analyzers consume, using only the standard library and the go command.
//
// Two loaders are provided. Packages loads module packages by pattern
// ("./..."): `go list -deps -export` enumerates them and builds gc export
// data for every dependency, and each matched package is type-checked from
// source against that export data. Dir loads one directory as a package
// with GOPATH-style import resolution rooted at a testdata/src tree, which
// is what the analysistest harness needs.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"ftsched/internal/analysis"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// Packages loads and type-checks the module packages matching the patterns,
// evaluated in dir (which must lie inside the module). Imports resolve to
// the gc export data the go command built, so no dependency is re-checked
// from source. Test files are not loaded: the determinism contract binds
// the shipped code only. A package that does not parse or type-check fails
// the go command's build, and its error is returned.
func Packages(dir string, patterns ...string) ([]*analysis.Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Name,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly && len(p.GoFiles) > 0 {
			listed = append(listed, p)
		}
	}

	// One file set and one importer for every package: the importer caches
	// each dependency's export data, so shared packages are decoded once.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	units := make([]*analysis.Unit, 0, len(listed))
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %w", p.ImportPath, err)
		}
		units = append(units, &analysis.Unit{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Pkg:   pkg,
			Info:  info,
		})
	}
	return units, nil
}

// Dir loads the single package in dir, resolving its non-stdlib imports
// GOPATH-style against root (testdata/src layout): import path "a/b" is the
// package in root/a/b. Fixture packages may import each other and the
// standard library.
func Dir(root, path string) (*analysis.Unit, error) {
	u, _, err := DirDeps(root, path)
	return u, err
}

// DirDeps is Dir plus the fixture dependencies it pulled in: every other
// package of the tree the target (transitively) imports, in load order. The
// analysistest harness feeds them to the summary engine so interprocedural
// facts flow between fixture packages the same way they do between real
// ones.
func DirDeps(root, path string) (*analysis.Unit, []*analysis.Unit, error) {
	fset := token.NewFileSet()
	ld := &treeLoader{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*analysis.Unit),
	}
	u, err := ld.load(path)
	if err != nil {
		return nil, nil, err
	}
	var deps []*analysis.Unit
	for _, p := range ld.order {
		if du := ld.cache[p]; du != nil && du != u {
			deps = append(deps, du)
		}
	}
	return u, deps, nil
}

// treeLoader type-checks a testdata/src tree, memoizing packages so fixture
// cross-imports resolve to one types.Package identity.
type treeLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*analysis.Unit
	order []string // paths in completion order (dependencies first)
}

// Import implements types.Importer over the fixture tree, falling back to
// the standard library for anything not present under root.
func (l *treeLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); isDir(dir) {
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *treeLoader) load(path string) (*analysis.Unit, error) {
	if u, ok := l.cache[path]; ok {
		return u, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	u := &analysis.Unit{Path: path, Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	l.cache[path] = u
	l.order = append(l.order, path)
	return u, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// newInfo allocates the full set of type-checker fact maps the analyzers
// rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
