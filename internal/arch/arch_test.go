package arch

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// paperBusArch builds Fig. 13(b): P1, P2, P3 on a single bus.
func paperBusArch(t *testing.T) *Architecture {
	t.Helper()
	a := New("bus3")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddBus("bus", "P1", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	return a
}

// paperChainArch builds Fig. 8: P1 -L12- P2 -L23- P3.
func paperChainArch(t *testing.T) *Architecture {
	t.Helper()
	a := New("chain3")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddLink("L12", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddLink("L23", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	return a
}

// paperTriangleArch builds Fig. 21(b): a fully connected point-to-point
// triangle.
func paperTriangleArch(t *testing.T) *Architecture {
	t.Helper()
	a := New("tri3")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.AddLink("L12", "P1", "P2")
	_ = a.AddLink("L23", "P2", "P3")
	_ = a.AddLink("L13", "P1", "P3")
	return a
}

func TestAddErrors(t *testing.T) {
	a := New("a")
	if err := a.AddProcessor(""); err == nil {
		t.Error("expected empty-name error")
	}
	_ = a.AddProcessor("P1")
	if err := a.AddProcessor("P1"); err == nil {
		t.Error("expected duplicate-processor error")
	}
	_ = a.AddProcessor("P2")
	if err := a.AddLink("", "P1", "P2"); err == nil {
		t.Error("expected empty-link-name error")
	}
	if err := a.AddLink("L", "P1", "PX"); err == nil {
		t.Error("expected unknown-endpoint error")
	}
	if err := a.AddLink("L", "P1", "P1"); err == nil {
		t.Error("expected twice-attached error")
	}
	if err := a.AddBus("B", "P1"); err == nil {
		t.Error("expected bus-too-small error")
	}
	if err := a.AddLink("L", "P1", "P2"); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := a.AddLink("L", "P1", "P2"); err == nil {
		t.Error("expected duplicate-link error")
	}
}

func TestKindsAndTopologyPredicates(t *testing.T) {
	bus := paperBusArch(t)
	if !bus.IsBusOnly() || bus.IsPointToPointOnly() {
		t.Error("bus3 should be bus-only")
	}
	tri := paperTriangleArch(t)
	if tri.IsBusOnly() || !tri.IsPointToPointOnly() {
		t.Error("tri3 should be p2p-only")
	}
	if New("e").IsBusOnly() || New("e").IsPointToPointOnly() {
		t.Error("empty architecture is neither")
	}
	if PointToPoint.String() != "point-to-point" || Bus.String() != "bus" {
		t.Error("kind strings")
	}
	if !strings.Contains(LinkKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestValidate(t *testing.T) {
	if err := New("e").Validate(); err == nil {
		t.Error("empty architecture must not validate")
	}

	solo := New("solo")
	_ = solo.AddProcessor("P1")
	if err := solo.Validate(); err != nil {
		t.Errorf("single-processor architecture should validate: %v", err)
	}

	island := New("island")
	_ = island.AddProcessor("P1")
	_ = island.AddProcessor("P2")
	if err := island.Validate(); err == nil {
		t.Error("processor without links must not validate")
	}

	split := New("split")
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		_ = split.AddProcessor(p)
	}
	_ = split.AddLink("L1", "P1", "P2")
	_ = split.AddLink("L2", "P3", "P4")
	if err := split.Validate(); err == nil {
		t.Error("disconnected architecture must not validate")
	}

	if err := paperChainArch(t).Validate(); err != nil {
		t.Errorf("chain should validate: %v", err)
	}
	if err := paperBusArch(t).Validate(); err != nil {
		t.Errorf("bus should validate: %v", err)
	}
}

func TestRouteDirect(t *testing.T) {
	a := paperChainArch(t)
	r, err := a.Route("P1", "P2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, Route{{Link: "L12", To: "P2"}}) {
		t.Errorf("route = %v", r)
	}
}

func TestRouteMultiHop(t *testing.T) {
	// The paper's Fig. 8 example: P1 to P3 is routed over P2.
	a := paperChainArch(t)
	r, err := a.Route("P1", "P3")
	if err != nil {
		t.Fatal(err)
	}
	want := Route{{Link: "L12", To: "P2"}, {Link: "L23", To: "P3"}}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("route = %v, want %v", r, want)
	}
}

func TestRouteSelf(t *testing.T) {
	a := paperChainArch(t)
	r, err := a.Route("P1", "P1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 0 {
		t.Errorf("self route = %v, want empty", r)
	}
}

func TestRouteBus(t *testing.T) {
	a := paperBusArch(t)
	r, err := a.Route("P1", "P3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, Route{{Link: "bus", To: "P3"}}) {
		t.Errorf("route = %v", r)
	}
}

func TestRouteErrors(t *testing.T) {
	a := paperChainArch(t)
	if _, err := a.Route("PX", "P1"); err == nil {
		t.Error("expected unknown-src error")
	}
	if _, err := a.Route("P1", "PX"); err == nil {
		t.Error("expected unknown-dst error")
	}
	split := New("split")
	_ = split.AddProcessor("P1")
	_ = split.AddProcessor("P2")
	if _, err := split.Route("P1", "P2"); err == nil {
		t.Error("expected no-route error")
	}
}

func TestRouteDeterministicTieBreak(t *testing.T) {
	// Two parallel links; the earliest-declared must win.
	a := New("par")
	_ = a.AddProcessor("P1")
	_ = a.AddProcessor("P2")
	_ = a.AddLink("first", "P1", "P2")
	_ = a.AddLink("second", "P1", "P2")
	r, err := a.Route("P1", "P2")
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Link != "first" {
		t.Errorf("tie-break chose %q, want \"first\"", r[0].Link)
	}
}

func TestRouteCacheInvalidation(t *testing.T) {
	a := New("grow")
	_ = a.AddProcessor("P1")
	_ = a.AddProcessor("P2")
	_ = a.AddProcessor("P3")
	_ = a.AddLink("L12", "P1", "P2")
	_ = a.AddLink("L23", "P2", "P3")
	r, _ := a.Route("P1", "P3")
	if len(r) != 2 {
		t.Fatalf("route = %v", r)
	}
	// Adding a direct link must shorten the route.
	_ = a.AddLink("L13", "P1", "P3")
	r, _ = a.Route("P1", "P3")
	if len(r) != 1 || r[0].Link != "L13" {
		t.Errorf("route after adding L13 = %v", r)
	}
}

func TestDiameter(t *testing.T) {
	chain := paperChainArch(t)
	d, err := chain.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("chain diameter = %d, want 2", d)
	}
	bus := paperBusArch(t)
	d, err = bus.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("bus diameter = %d, want 1", d)
	}
}

func TestNeighborsAndSharedLink(t *testing.T) {
	a := paperChainArch(t)
	if got := a.Neighbors("P2"); !reflect.DeepEqual(got, []string{"P1", "P3"}) {
		t.Errorf("Neighbors(P2) = %v", got)
	}
	if got := a.Neighbors("P1"); !reflect.DeepEqual(got, []string{"P2"}) {
		t.Errorf("Neighbors(P1) = %v", got)
	}
	if got := a.SharedLink("P1", "P2"); got != "L12" {
		t.Errorf("SharedLink = %q", got)
	}
	if got := a.SharedLink("P1", "P3"); got != "" {
		t.Errorf("SharedLink(P1,P3) = %q, want none", got)
	}
}

func TestLinksOfAndAccessors(t *testing.T) {
	a := paperChainArch(t)
	if got := a.LinksOf("P2"); !reflect.DeepEqual(got, []string{"L12", "L23"}) {
		t.Errorf("LinksOf(P2) = %v", got)
	}
	if a.NumProcessors() != 3 || a.NumLinks() != 2 {
		t.Error("counts")
	}
	if a.Processor("P1") == nil || a.Processor("PX") != nil {
		t.Error("Processor lookup")
	}
	if a.Link("L12") == nil || a.Link("LX") != nil {
		t.Error("Link lookup")
	}
	if a.Link("L12").Kind() != PointToPoint {
		t.Error("link kind")
	}
	if !a.Link("L12").Connects("P1") || a.Link("L12").Connects("P3") {
		t.Error("Connects")
	}
	eps := a.Link("L12").Endpoints()
	eps[0] = "mutated"
	if a.Link("L12").Endpoints()[0] != "P1" {
		t.Error("Endpoints returned aliased slice")
	}
	if got := a.ProcessorNames(); !reflect.DeepEqual(got, []string{"P1", "P2", "P3"}) {
		t.Errorf("ProcessorNames = %v", got)
	}
	if got := a.LinkNames(); !reflect.DeepEqual(got, []string{"L12", "L23"}) {
		t.Errorf("LinkNames = %v", got)
	}
	for _, name := range a.LinkNames() {
		if got := a.LinkName(a.LinkID(name)); got != name {
			t.Errorf("LinkName(LinkID(%q)) = %q", name, got)
		}
	}
}

func TestClone(t *testing.T) {
	a := paperBusArch(t)
	c := a.Clone()
	if c.NumProcessors() != 3 || c.NumLinks() != 1 {
		t.Fatal("clone shape")
	}
	_ = c.AddProcessor("P4")
	if a.HasProcessor("P4") {
		t.Error("clone mutation leaked")
	}
	if c.Link("bus").Kind() != Bus {
		t.Error("clone lost bus kind")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := New("mix")
	for _, p := range []string{"P1", "P2", "P3"} {
		_ = a.AddProcessor(p)
	}
	_ = a.AddLink("L12", "P1", "P2")
	_ = a.AddBus("can", "P1", "P2", "P3")
	data, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Architecture
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Name() != "mix" || back.NumProcessors() != 3 || back.NumLinks() != 2 {
		t.Fatalf("round trip: %s", back.Summary())
	}
	if back.Link("can").Kind() != Bus || back.Link("L12").Kind() != PointToPoint {
		t.Error("kinds lost")
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	var a Architecture
	if err := a.UnmarshalJSON([]byte(`bad`)); err == nil {
		t.Error("expected syntax error")
	}
	if err := a.UnmarshalJSON([]byte(`{"processors":["P1"],"links":[{"name":"l","kind":"warp","endpoints":["P1"]}]}`)); err == nil {
		t.Error("expected unknown-kind error")
	}
	if err := a.UnmarshalJSON([]byte(`{"processors":["P1"],"links":[{"name":"l","kind":"p2p","endpoints":["P1"]}]}`)); err == nil {
		t.Error("expected endpoint-count error")
	}
}

func TestDOT(t *testing.T) {
	a := New("mix")
	for _, p := range []string{"P1", "P2"} {
		_ = a.AddProcessor(p)
	}
	_ = a.AddLink("L", "P1", "P2")
	_ = a.AddBus("B", "P1", "P2")
	dot := a.DOT()
	for _, frag := range []string{`graph "mix"`, `"P1" -- "P2"`, `"bus_B"`} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

func TestSummary(t *testing.T) {
	s := paperBusArch(t).Summary()
	for _, frag := range []string{"3 processors", "1 buses", "0 point-to-point"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Summary missing %q: %s", frag, s)
		}
	}
}

// randomConnectedArch builds a random connected architecture: a spanning
// chain plus random extra links.
func randomConnectedArch(r *rand.Rand, n int) *Architecture {
	a := New("rand")
	for i := 0; i < n; i++ {
		_ = a.AddProcessor("P" + strconv.Itoa(i))
	}
	for i := 1; i < n; i++ {
		_ = a.AddLink("chain"+strconv.Itoa(i), "P"+strconv.Itoa(i-1), "P"+strconv.Itoa(i))
	}
	extra := r.Intn(n + 1)
	for e := 0; e < extra; e++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		name := "x" + strconv.Itoa(e)
		_ = a.AddLink(name, "P"+strconv.Itoa(i), "P"+strconv.Itoa(j))
	}
	return a
}

func TestQuickRoutesAreValidPaths(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%8) + 2
		r := rand.New(rand.NewSource(seed))
		a := randomConnectedArch(r, n)
		if err := a.Validate(); err != nil {
			return false
		}
		for _, s := range a.ProcessorNames() {
			for _, d := range a.ProcessorNames() {
				route, err := a.Route(s, d)
				if err != nil {
					return false
				}
				// Walk the route and check each hop is traversable.
				at := s
				for _, h := range route {
					l := a.Link(h.Link)
					if l == nil || !l.Connects(at) || !l.Connects(h.To) {
						return false
					}
					at = h.To
				}
				if at != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoutesAreShortest(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%7) + 2
		r := rand.New(rand.NewSource(seed))
		a := randomConnectedArch(r, n)
		// Independent BFS distance computation.
		for _, s := range a.ProcessorNames() {
			dist := map[string]int{s: 0}
			queue := []string{s}
			for len(queue) > 0 {
				p := queue[0]
				queue = queue[1:]
				for _, q := range a.Neighbors(p) {
					if _, ok := dist[q]; !ok {
						dist[q] = dist[p] + 1
						queue = append(queue, q)
					}
				}
			}
			for _, d := range a.ProcessorNames() {
				route, err := a.Route(s, d)
				if err != nil {
					return false
				}
				if len(route) != dist[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBusBetween checks the cached processor-pair -> bus lookup: earliest
// declared bus wins, non-bus connectivity is invisible, and mutation drops
// the cache.
func TestBusBetween(t *testing.T) {
	a := New("mixed")
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddLink("L12", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBus("B123", "P1", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBus("B23", "P2", "P3"); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ x, y, want string }{
		{"P1", "P2", "B123"}, // the point-to-point L12 must not count
		{"P2", "P1", "B123"},
		{"P2", "P3", "B123"}, // earliest declared wins over B23
		{"P1", "P4", ""},     // P4 is on no bus
		{"P1", "P1", "B123"}, // self-pair: earliest bus attaching P1
	}
	for _, c := range cases {
		if got := a.BusBetween(c.x, c.y); got != c.want {
			t.Errorf("BusBetween(%s, %s) = %q, want %q", c.x, c.y, got, c.want)
		}
	}

	// Mutation invalidates the cached table.
	if err := a.AddBus("B14", "P1", "P4"); err != nil {
		t.Fatal(err)
	}
	if got := a.BusBetween("P1", "P4"); got != "B14" {
		t.Errorf("after AddBus: BusBetween(P1, P4) = %q, want B14", got)
	}
}

// TestPrecompute checks that Precompute warms both lazy tables, so later
// Route/BusBetween calls are pure lookups (the scheduler's worker pool
// relies on this for race-freedom).
func TestPrecompute(t *testing.T) {
	a := New("pre")
	for _, p := range []string{"P1", "P2", "P3"} {
		if err := a.AddProcessor(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddLink("L12", "P1", "P2"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBus("B23", "P2", "P3"); err != nil {
		t.Fatal(err)
	}
	a.Precompute()
	if a.routes == nil || a.buses == nil {
		t.Fatalf("Precompute left a table nil: routes=%v buses=%v", a.routes != nil, a.buses != nil)
	}
	r, err := a.Route("P1", "P3")
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || r[0].Link != "L12" || r[1].Link != "B23" {
		t.Errorf("Route(P1, P3) = %v, want L12 then B23", r)
	}
	if got := a.BusBetween("P2", "P3"); got != "B23" {
		t.Errorf("BusBetween(P2, P3) = %q, want B23", got)
	}
}
