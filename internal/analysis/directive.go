package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// DirectiveAnalyzerName attributes the diagnostics of the directive grammar
// itself (malformed or stale //ftlint: comments).
const DirectiveAnalyzerName = "ftlint-directive"

// directiveAnalyzers maps each suppression directive to the analyzer it
// silences. The grammar is
//
//	//ftlint:<name> <reason>
//
// where <name> is one of the keys below and <reason> is a non-empty
// free-text justification (for order-insensitive, a one-line proof of
// order-insensitivity). A directive suppresses diagnostics of its analyzer
// on its own source line or the line directly beneath it.
var directiveAnalyzers = map[string]string{
	"order-insensitive": "mapiter",
	"allow-nondet":      "nondet",
	"infwcet-checked":   "infwcet",
	"allow-obs":         "obssafe",
	"allow-discard":     "errprop",
	"epoch-pure":        "epochpurity",
	"allow-nopoll":      "cancelpoll",
	"hotalloc-ok":       "hotalloc",
}

// Directive is one parsed //ftlint: suppression comment.
type Directive struct {
	Name   string // directive keyword, e.g. "order-insensitive"
	Reason string // justification text, always non-empty
	Pos    token.Position
	Line   int
}

// Analyzer returns the name of the analyzer this directive suppresses.
func (d Directive) Analyzer() string { return directiveAnalyzers[d.Name] }

// ParseDirectives scans every comment of the files for //ftlint: directives.
// Well-formed directives are returned; a malformed one (unknown keyword or
// missing reason) becomes a diagnostic, so a typo can never silently
// suppress nothing.
func ParseDirectives(fset *token.FileSet, files []*ast.File) ([]Directive, []Diagnostic) {
	var dirs []Directive
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//ftlint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				name, reason, _ := strings.Cut(text, " ")
				reason = strings.TrimSpace(reason)
				if _, known := directiveAnalyzers[name]; !known {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: DirectiveAnalyzerName,
						Message:  "unknown directive //ftlint:" + name + "; valid names: " + directiveNames(),
					})
					continue
				}
				if reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: DirectiveAnalyzerName,
						Message:  "//ftlint:" + name + " needs a reason: //ftlint:" + name + " <why this site is safe>",
					})
					continue
				}
				dirs = append(dirs, Directive{Name: name, Reason: reason, Pos: pos, Line: pos.Line})
			}
		}
	}
	return dirs, bad
}

// directiveNames returns the valid keywords, sorted, for error messages.
func directiveNames() string {
	names := make([]string, 0, len(directiveAnalyzers))
	for n := range directiveAnalyzers {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
