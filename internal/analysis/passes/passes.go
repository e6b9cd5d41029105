// Package passes registers the ftlint analyzer suite.
package passes

import (
	"fmt"
	"strings"

	"ftsched/internal/analysis"
	"ftsched/internal/analysis/passes/cancelpoll"
	"ftsched/internal/analysis/passes/epochpurity"
	"ftsched/internal/analysis/passes/errprop"
	"ftsched/internal/analysis/passes/hotalloc"
	"ftsched/internal/analysis/passes/infwcet"
	"ftsched/internal/analysis/passes/mapiter"
	"ftsched/internal/analysis/passes/nondet"
	"ftsched/internal/analysis/passes/obssafe"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cancelpoll.Analyzer,
		epochpurity.Analyzer,
		errprop.Analyzer,
		hotalloc.Analyzer,
		infwcet.Analyzer,
		mapiter.Analyzer,
		nondet.Analyzer,
		obssafe.Analyzer,
	}
}

// Select resolves a comma-separated analyzer-name list against the suite,
// preserving suite order and rejecting unknown names with the valid set in
// the error. An empty spec selects everything.
func Select(spec string) ([]*analysis.Analyzer, error) {
	all := All()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("unknown analyzer %q; valid names: %s", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing; valid names: %s", strings.Join(names, ", "))
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}
