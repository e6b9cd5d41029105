// Package analysis is ftsched's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) plus the //ftlint: suppression-directive
// machinery shared by every pass.
//
// The build environment of this repository is hermetic — no module proxy is
// reachable — so the framework is implemented on the standard library alone
// (go/ast, go/types, go/parser and the go command). The analyzer API is kept
// deliberately close to x/tools so the passes could be ported to a real
// multichecker by swapping this package for the upstream one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass: a name (also the prefix of
// its diagnostics), user-facing documentation, and the Run function applied
// to every package under analysis.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work. Analyzers report
// findings through Reportf; they must not retain the Pass after Run returns.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts carries driver-attached cross-package analysis facts (the
	// interprocedural summaries of internal/analysis/summary, attached as
	// `any` to keep this framework package dependency-free). Passes access
	// it through summary.For, which degrades gracefully when nil.
	Facts any

	diags []Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
// A diagnostic may carry suggested fixes: concrete textual edits that
// `ftlint -fix` applies mechanically.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fixes    []SuggestedFix
}

// SuggestedFix is one self-contained repair for a diagnostic. Its edits are
// applied atomically: either all of them land or (on overlap with another
// fix) none do.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces the half-open byte range [Start, End) of Filename with
// NewText. Start == End is a pure insertion.
type TextEdit struct {
	Filename   string
	Start, End int
	NewText    string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding at pos carrying one suggested fix. A nil fix
// degrades to Reportf, so passes can compute fixes opportunistically.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	d := Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if fix != nil && len(fix.Edits) > 0 {
		d.Fixes = []SuggestedFix{*fix}
	}
	p.diags = append(p.diags, d)
}

// Edit builds a TextEdit replacing the source between from and to (token
// positions in the pass's file set) with newText.
func (p *Pass) Edit(from, to token.Pos, newText string) TextEdit {
	start := p.Fset.Position(from)
	end := p.Fset.Position(to)
	return TextEdit{
		Filename: start.Filename,
		Start:    start.Offset,
		End:      end.Offset,
		NewText:  newText,
	}
}

// InsertBefore builds a pure-insertion TextEdit at pos.
func (p *Pass) InsertBefore(pos token.Pos, newText string) TextEdit {
	return p.Edit(pos, pos, newText)
}

// CriticalPackages lists the determinism-critical packages: the scheduler
// core and every consumer whose output feeds the K-fault certificate or the
// golden-equivalence matrix. A package is critical when the final element of
// its import path appears here (which also makes analysistest fixtures easy
// to place under a directory of the same name).
var CriticalPackages = map[string]bool{
	"core":     true,
	"sched":    true,
	"certify":  true,
	"benchrun": true,
	"sim":      true,
	"campaign": true,
	"serve":    true,
}

// IsCriticalPackage reports whether the import path names a
// determinism-critical package.
func IsCriticalPackage(path string) bool {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return CriticalPackages[path]
}

// Unit is one loaded, type-checked package ready for analysis.
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts holds cross-package facts a driver attached before Check (see
	// Pass.Facts).
	Facts any
}

// Check runs the analyzers over the units and returns the surviving
// diagnostics sorted by position: findings not suppressed by a matching
// //ftlint: directive, plus one diagnostic for every malformed directive and
// every stale (unused) directive belonging to an analyzer that ran.
func Check(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, u := range units {
		// The invariants bind the package's shipped sources. Test files are
		// exempt: tests iterate maps to drive subtests, time their subjects,
		// and build ∞ fixtures deliberately — all fine outside the schedule
		// path. Fixture trees may hold test files, so filter here rather than
		// in each loader.
		files := NonTestFiles(u.Fset, u.Files)
		dirs, malformed := ParseDirectives(u.Fset, files)
		out = append(out, malformed...)
		used := make([]bool, len(dirs))
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
				Facts:     u.Facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
			}
			for _, d := range pass.diags {
				if i := suppressing(dirs, a.Name, d); i >= 0 {
					used[i] = true
					continue
				}
				out = append(out, d)
			}
		}
		for i, dir := range dirs {
			if used[i] || !ran[dir.Analyzer()] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      dir.Pos,
				Analyzer: DirectiveAnalyzerName,
				Message: fmt.Sprintf("stale //ftlint:%s directive: it suppresses no %s diagnostic; delete it",
					dir.Name, dir.Analyzer()),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// NonTestFiles filters out files whose name ends in _test.go — the shipped
// sources the invariants bind. Exported so fact computation (which must see
// exactly the files the passes see) applies the same exemption.
func NonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// suppressing returns the index of the directive suppressing d, or -1. A
// directive suppresses a diagnostic of its analyzer reported on the
// directive's own line (trailing comment) or the line below it (comment on
// its own line above the flagged statement).
func suppressing(dirs []Directive, analyzer string, d Diagnostic) int {
	for i, dir := range dirs {
		if dir.Analyzer() != analyzer {
			continue
		}
		if dir.Pos.Filename != d.Pos.Filename {
			continue
		}
		if d.Pos.Line == dir.Line || d.Pos.Line == dir.Line+1 {
			return i
		}
	}
	return -1
}
