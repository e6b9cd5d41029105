// Package spec is an infwcet fixture mirroring the WCET-table surface of the
// real ftsched/internal/spec package: the ∞ sentinel, the possibly-∞
// accessors Exec and AvgExec by name and by ID (View), and the CanRun
// guard. The
// analyzer matches by package base name and type name, so this stand-in
// exercises the same recognizers.
package spec

import "math"

// Inf is the sentinel returned for forbidden placements.
var Inf = math.Inf(1)

// Spec is a minimal Δ(op, proc) table.
type Spec struct {
	D map[string]float64
}

// Exec returns the duration of op on proc, or Inf if forbidden.
func (s *Spec) Exec(op, proc string) float64 {
	if d, ok := s.D[op+"|"+proc]; ok {
		return d
	}
	return Inf
}

// AvgExec returns the average duration of op, or Inf if unplaceable.
func (s *Spec) AvgExec(op string) float64 {
	sum, n := 0.0, 0
	for k, d := range s.D {
		if len(k) >= len(op) && k[:len(op)] == op {
			sum += d
			n++
		}
	}
	if n == 0 {
		return Inf
	}
	return sum / float64(n)
}

// CanRun reports whether op may be placed on proc.
func (s *Spec) CanRun(op, proc string) bool {
	return !math.IsInf(s.Exec(op, proc), 1)
}

// View reads a Spec by operation and processor IDs.
type View struct {
	S     *Spec
	Names []string
}

// Exec returns the duration of op on proc, or Inf if forbidden.
func (v *View) Exec(op, proc int32) float64 {
	return v.S.Exec(v.Names[op], v.Names[proc])
}

// AvgExec returns the average duration of op, or Inf if unplaceable.
func (v *View) AvgExec(op int32) float64 {
	return v.S.AvgExec(v.Names[op])
}
