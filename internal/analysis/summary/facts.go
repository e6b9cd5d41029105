package summary

import "ftsched/internal/analysis"

// Export returns the cumulative fact set this package publishes to its
// importers: every imported summary plus one per declared function of this
// package, keyed by types.Func.FullName. Entries a //ftlint: directive
// sanctioned in their home package are dropped — a suppressed site must not
// taint callers — and empty summaries are omitted.
func (in *Info) Export() map[string]*Summary {
	out := make(map[string]*Summary, len(in.Imported)+len(in.Local))
	for name, s := range in.Imported {
		out[name] = s
	}
	for n, s := range in.Local {
		if n.Fn == nil {
			continue // literals are not addressable across packages
		}
		clean := exportable(s)
		if clean != nil {
			out[n.Fn.FullName()] = clean
		}
	}
	return out
}

// exportable strips suppressed entries; nil when nothing remains.
func exportable(s *Summary) *Summary {
	out := &Summary{
		PollsCancel: s.PollsCancel,
		MutRecv:     s.MutRecv,
		MutParams:   s.MutParams,
		ErrorValued: s.ErrorValued,
	}
	for _, e := range s.Protected {
		if !e.Suppressed {
			out.Protected = append(out.Protected, e)
		}
	}
	for _, a := range s.Allocs {
		if !a.Suppressed {
			out.Allocs = append(out.Allocs, a)
		}
	}
	for _, n := range s.Nondet {
		if !n.Suppressed {
			out.Nondet = append(out.Nondet, n)
		}
	}
	if len(out.Protected) == 0 && len(out.Allocs) == 0 && len(out.Nondet) == 0 &&
		!out.PollsCancel && !out.MutRecv && len(out.MutParams) == 0 && !out.ErrorValued {
		return nil
	}
	return out
}

// AttachAll computes summaries for every unit in dependency order and
// attaches the resulting Info to Unit.Facts, so analyzers running through
// the framework see the facts of every loaded package a unit imports.
func AttachAll(units []*analysis.Unit) {
	byPath := make(map[string]*analysis.Unit, len(units))
	for _, u := range units {
		byPath[u.Pkg.Path()] = u
	}
	done := make(map[string]map[string]*Summary, len(units))
	var visit func(u *analysis.Unit) map[string]*Summary
	visit = func(u *analysis.Unit) map[string]*Summary {
		path := u.Pkg.Path()
		if facts, ok := done[path]; ok {
			return facts
		}
		done[path] = map[string]*Summary{} // cycle guard; Go packages cannot cycle anyway
		imported := map[string]*Summary{}
		for _, dep := range u.Pkg.Imports() {
			du, ok := byPath[dep.Path()]
			if !ok {
				continue
			}
			for name, s := range visit(du) {
				imported[name] = s
			}
		}
		files := analysis.NonTestFiles(u.Fset, u.Files)
		info := Compute(u.Fset, files, u.Pkg, u.Info, imported)
		u.Facts = info
		facts := info.Export()
		done[path] = facts
		return facts
	}
	for _, u := range units {
		visit(u)
	}
}
