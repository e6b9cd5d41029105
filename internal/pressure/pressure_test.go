package pressure

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// compute builds the table for g under sp. The averages read whole spec
// rows, so the view's architecture does not matter.
func compute(g *graph.Graph, sp *spec.Spec) (Table, error) {
	return Compute(g, sp.View(g, arch.New("none")))
}

// e returns E of the named operation.
func e(t *Table, g *graph.Graph, op string) float64 { return t.E(g.OpID(op)) }

// chainFixture: A -> B -> C, exec 2 on P1 and 4 on P2 (avg 3), comm 1.
func chainFixture(t *testing.T) (*graph.Graph, *spec.Spec) {
	t.Helper()
	g := graph.New("chain")
	for _, n := range []string{"A", "B", "C"} {
		if err := g.AddComp(n); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("A", "B")
	_ = g.Connect("B", "C")
	sp := spec.New()
	for _, n := range []string{"A", "B", "C"} {
		_ = sp.SetExec(n, "P1", 2)
		_ = sp.SetExec(n, "P2", 4)
	}
	for _, e := range g.Edges() {
		_ = sp.SetComm(e.Key(), "L", 1)
	}
	return g, sp
}

func TestComputeChain(t *testing.T) {
	g, sp := chainFixture(t)
	tab, err := compute(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Averaged durations: 3 per op, 1 per edge. R = 3+1+3+1+3 = 11.
	if !almostEq(tab.R, 11) {
		t.Errorf("R = %v, want 11", tab.R)
	}
	if !almostEq(e(&tab, g, "C"), 0) {
		t.Errorf("E(C) = %v, want 0", e(&tab, g, "C"))
	}
	if !almostEq(e(&tab, g, "B"), 4) { // comm 1 + C 3
		t.Errorf("E(B) = %v, want 4", e(&tab, g, "B"))
	}
	if !almostEq(e(&tab, g, "A"), 8) {
		t.Errorf("E(A) = %v, want 8", e(&tab, g, "A"))
	}
}

func TestSigma(t *testing.T) {
	g, sp := chainFixture(t)
	tab, err := compute(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling A at t=0 with its average duration on the critical path
	// gives σ = 0 + 3 + 8 − 11 = 0: no lengthening.
	if got := tab.Sigma(g.OpID("A"), 0, 3); !almostEq(got, 0) {
		t.Errorf("Sigma(A,0,3) = %v, want 0", got)
	}
	// Any delay or longer duration increases σ by the same amount.
	if got := tab.Sigma(g.OpID("A"), 2, 3); !almostEq(got, 2) {
		t.Errorf("Sigma(A,2,3) = %v, want 2", got)
	}
	if got := tab.Sigma(g.OpID("A"), 0, 5); !almostEq(got, 2) {
		t.Errorf("Sigma(A,0,5) = %v, want 2", got)
	}
	// An operation with slack can absorb delay: σ stays negative until the
	// slack is consumed.
	if got := tab.Sigma(g.OpID("C"), 0, 3); !almostEq(got, -8) {
		t.Errorf("Sigma(C,0,3) = %v, want -8", got)
	}
}

func TestComputeCycleError(t *testing.T) {
	g := graph.New("cyc")
	_ = g.AddComp("a")
	_ = g.AddComp("b")
	_ = g.Connect("a", "b")
	_ = g.Connect("b", "a")
	if _, err := compute(g, spec.New()); err == nil {
		t.Fatal("expected cycle error")
	}
}

// TestComputeRejectsUnplaceableOp is the regression test for the ∞-sentinel
// leak found by the infwcet audit: an operation with no allowed processor
// makes AvgExec return +Inf, which LongestPaths propagated into the tails and
// R. Sigma then evaluated Inf − Inf = NaN for upstream candidates, and NaN
// compares false with everything — the heuristic kept mis-ranked candidates
// instead of failing. Compute must reject the table up front.
func TestComputeRejectsUnplaceableOp(t *testing.T) {
	g := graph.New("chain")
	for _, n := range []string{"A", "B", "C"} {
		if err := g.AddComp(n); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("A", "B")
	_ = g.Connect("B", "C")
	sp := spec.New()
	for _, n := range []string{"A", "C"} { // B has no allowed processor
		_ = sp.SetExec(n, "P1", 2)
	}
	for _, e := range g.Edges() {
		_ = sp.SetComm(e.Key(), "L", 1)
	}
	_, err := compute(g, sp)
	if err == nil {
		t.Fatal("Compute accepted a table with an unplaceable operation")
	}
	// A is the only op whose remaining path crosses B, so the error must
	// name it — deterministically, regardless of map iteration order.
	if want := "remaining path after A"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestComputeRejectsUnplaceableSource covers the R-only branch: when the
// unplaceable operation is a source, every tail stays finite but the critical
// path itself is infinite.
func TestComputeRejectsUnplaceableSource(t *testing.T) {
	g := graph.New("chain")
	for _, n := range []string{"A", "B"} {
		if err := g.AddComp(n); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("A", "B")
	sp := spec.New()
	_ = sp.SetExec("B", "P1", 2) // A has no allowed processor
	for _, e := range g.Edges() {
		_ = sp.SetComm(e.Key(), "L", 1)
	}
	_, err := compute(g, sp)
	if err == nil {
		t.Fatal("Compute accepted a table with an unplaceable source")
	}
	if want := "critical path is not finite"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestComputeIgnoresDelayed checks that a delayed edge neither closes a
// cycle nor lengthens a path.
func TestComputeIgnoresDelayed(t *testing.T) {
	g := graph.New("fb")
	_ = g.AddMem("m")
	_ = g.AddComp("f")
	_ = g.Connect("m", "f")
	_ = g.Connect("f", "m") // delayed
	sp := spec.New()
	_ = sp.SetExec("m", "P1", 1)
	_ = sp.SetExec("f", "P1", 1)
	for _, e := range g.Edges() {
		_ = sp.SetComm(e.Key(), "L", 10)
	}
	tab, err := compute(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tab.R, 1+10+1) {
		t.Errorf("R = %v, want 12", tab.R)
	}
	if !almostEq(e(&tab, g, "f"), 0) {
		t.Errorf("E(f) = %v, want 0", e(&tab, g, "f"))
	}
}

// TestComputeDiamond: a -> {b (cost 5), c (cost 1)} -> d, edges cost 0.
func TestComputeDiamond(t *testing.T) {
	g := graph.New("diamond")
	sp := spec.New()
	for n, d := range map[string]float64{"a": 1, "b": 5, "c": 1, "d": 1} {
		_ = sp.SetExec(n, "P1", d)
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		_ = g.AddComp(n)
	}
	for _, k := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		_ = g.Connect(k[0], k[1])
		_ = sp.SetComm(graph.EdgeKey{Src: k[0], Dst: k[1]}, "L", 0)
	}
	tab, err := compute(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tab.R, 7) { // a(1) + b(5) + d(1)
		t.Errorf("R = %v, want 7", tab.R)
	}
	for op, want := range map[string]float64{"a": 6, "b": 1, "c": 1, "d": 0} {
		if got := e(&tab, g, op); !almostEq(got, want) {
			t.Errorf("E(%s) = %v, want %v", op, got, want)
		}
	}
}

// TestQuickComputeInvariants checks on random DAGs that every operation's
// longest path through it fits in R, and that some operation realizes R.
func TestQuickComputeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(sz%20) + 2
		g := graph.New("q")
		sp := spec.New()
		for i := range n {
			_ = g.AddComp(string(rune('a' + i)))
			_ = sp.SetExec(string(rune('a'+i)), "P1", 1)
		}
		for i := range n {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					k := graph.EdgeKey{Src: string(rune('a' + i)), Dst: string(rune('a' + j))}
					_ = g.Connect(k.Src, k.Dst)
					_ = sp.SetComm(k, "L", 0.5)
				}
			}
		}
		tab, err := compute(g, sp)
		if err != nil {
			return false
		}
		// A longest path starts at an op without strict predecessors.
		found := false
		for o := range int32(n) {
			if tab.E(o) < 0 || 1+tab.E(o) > tab.R+1e-9 {
				return false
			}
			found = found || len(g.IDs().Preds(o)) == 0 && almostEq(1+tab.E(o), tab.R)
		}
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
