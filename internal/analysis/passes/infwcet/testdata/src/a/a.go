// Package a is the infwcet consumer fixture: every flagged shape, its
// guarded counterpart, and directive suppression.
package a

import (
	"math"

	"spec"
)

func rawSentinelArith(x float64) float64 {
	return spec.Inf + x // want "raw arithmetic on the ∞ WCET sentinel"
}

func rawSentinelCompare(x float64) bool {
	return x < spec.Inf // want "raw ordering comparison on the ∞ WCET sentinel"
}

func rawMathInf(x float64) float64 {
	return math.Inf(1) * x // want "raw arithmetic on the ∞ WCET sentinel"
}

func directAccessorArith(s *spec.Spec, start float64) float64 {
	return start + s.Exec("op", "p") // want "result of Exec may be the ∞ sentinel"
}

func directAverageArith(s *spec.Spec) float64 {
	return s.AvgExec("op") - 1 // want "result of AvgExec may be the ∞ sentinel"
}

// The ID-keyed accessors the engines read return the same sentinel.
func directViewArith(v *spec.View, start float64) float64 {
	return start + v.Exec(0, 1) // want "result of Exec may be the ∞ sentinel"
}

func directViewAverageArith(v *spec.View) float64 {
	return v.AvgExec(0) * 2 // want "result of AvgExec may be the ∞ sentinel"
}

func taintedUnguarded(s *spec.Spec, base float64) float64 {
	d := s.Exec("op", "p")
	return base + d // want "d holds the result of a possibly-∞ spec accessor"
}

func taintedViewUnguarded(v *spec.View, base float64) float64 {
	d := v.Exec(0, 1)
	return base + d // want "d holds the result of a possibly-∞ spec accessor"
}

func taintedViewGuarded(v *spec.View, base float64) float64 {
	d := v.Exec(0, 1)
	if math.IsInf(d, 1) {
		return base
	}
	return base + d
}

func taintedGuardedByIsInf(s *spec.Spec, base float64) float64 {
	d := s.Exec("op", "p")
	if math.IsInf(d, 1) {
		return base
	}
	return base + d
}

func taintedGuardedByCanRun(s *spec.Spec, base float64) float64 {
	if !s.CanRun("op", "p") {
		return base
	}
	d := s.Exec("op", "p")
	return base + d
}

// The check runs only after the arithmetic already happened — the coarse
// any-guard-in-function test used to miss this; dominator analysis does not.
func checkedTooLate(s *spec.Spec, base float64) float64 {
	d := s.Exec("op", "p")
	r := base + d // want "d holds the result of a possibly-∞ spec accessor with no dominating finiteness check"
	if math.IsInf(r, 1) {
		return base
	}
	return r
}

// A guard on the slow path does not sanction the fast path that skips it.
func checkedWrongBranch(s *spec.Spec, base float64, fast bool) float64 {
	d := s.Exec("op", "p")
	if fast {
		return base + d // want "d holds the result of a possibly-∞ spec accessor with no dominating finiteness check"
	}
	if math.IsInf(d, 1) {
		return base
	}
	return base + d
}

// Guard and use both inside the same branch: the IsInf head dominates.
func checkedInsideBranch(s *spec.Spec, base float64, slow bool) float64 {
	d := s.Exec("op", "p")
	if slow {
		if math.IsInf(d, 1) {
			return base
		}
		return base + d
	}
	return base
}

// An early-out guard dominates everything after it, loops included.
func checkedBeforeLoop(s *spec.Spec, base float64, n int) float64 {
	d := s.Exec("op", "p")
	if math.IsInf(d, 1) {
		return base
	}
	for i := 0; i < n; i++ {
		base += d
	}
	return base
}

// A check after the use inside a loop body does not sanction the use: the
// range statement heads the loop but does not run its body's checks.
func checkedTooLateInRange(s *spec.Spec, ops []string, f float64) (t float64) {
	for _, op := range ops {
		d := s.Exec(op, "p")
		t = d * f // want "d holds the result of a possibly-∞ spec accessor with no dominating finiteness check"
		if math.IsInf(d, 1) {
			continue
		}
	}
	return t
}

// The same with the use in an if statement's init, the shape of a scaled
// SetExec.
func checkedTooLateInRangeInit(s *spec.Spec, ops []string, f float64, use func(float64) error) error {
	for _, op := range ops {
		d := s.Exec(op, "p")
		if err := use(d * f); err != nil { // want "d holds the result of a possibly-∞ spec accessor with no dominating finiteness check"
			return err
		}
		if math.IsInf(d, 1) {
			continue
		}
	}
	return nil
}

func checkedTooLateInFor(s *spec.Spec, n int, f float64) (t float64) {
	for i := 0; i < n; i++ {
		d := s.Exec("op", "p")
		t = d * f // want "d holds the result of a possibly-∞ spec accessor with no dominating finiteness check"
		if math.IsInf(d, 1) {
			continue
		}
	}
	return t
}

// A check before the use in the same loop body dominates it.
func checkedInRange(s *spec.Spec, ops []string, f float64) (t float64) {
	for _, op := range ops {
		d := s.Exec(op, "p")
		if math.IsInf(d, 1) {
			continue
		}
		t += d * f
	}
	return t
}

func sentinelEquality(s *spec.Spec) bool {
	// Equality against the sentinel is exact and allowed; only arithmetic
	// and ordering comparisons are flagged.
	return s.Exec("op", "p") == spec.Inf
}

func suppressed(s *spec.Spec, base float64) float64 {
	d := s.Exec("op", "p")
	return base + d //ftlint:infwcet-checked fixture: the caller filtered p through CanRun
}

func staleDirective(base float64) float64 {
	return base + 1 //ftlint:infwcet-checked nothing here is infinite // want "stale //ftlint:infwcet-checked directive"
}
