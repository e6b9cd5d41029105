package graph

import "testing"

// FuzzGraphJSON checks that arbitrary input never panics the decoder, that
// accepted graphs survive a round trip, and that their ID form agrees with
// the name-keyed reference (CheckIDs).
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"name":"g","ops":[{"name":"a","kind":"comp"},{"name":"b","kind":"mem"}],"edges":[{"src":"a","dst":"b"}]}`))
	f.Add([]byte(`{"ops":[{"name":"x","kind":"extio"}]}`))
	f.Add([]byte(`{"ops":[{"name":"a","kind":"comp"},{"name":"a","kind":"comp"}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"ops":[{"name":"a","kind":"comp"},{"name":"b","kind":"comp"},{"name":"c","kind":"extio"}],"edges":[{"src":"a","dst":"b"},{"src":"b","dst":"a"},{"src":"b","dst":"c"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return
		}
		out, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var back Graph
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.NumOps() != g.NumOps() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %s vs %s", back.Summary(), g.Summary())
		}
		if err := CheckIDs(&g); err != nil {
			t.Fatal(err)
		}
	})
}
