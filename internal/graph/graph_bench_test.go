package graph

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchDAG(b *testing.B, n int) *Graph {
	b.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	g := New("bench")
	for i := 0; i < n; i++ {
		if err := g.AddComp("op" + strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < i+8 && j < n; j++ {
			if r.Intn(3) == 0 {
				_ = g.Connect("op"+strconv.Itoa(i), "op"+strconv.Itoa(j))
			}
		}
	}
	return g
}

// BenchmarkBuildIDs times building the ID form of a 500-op graph.
func BenchmarkBuildIDs(b *testing.B) {
	g := benchDAG(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x := g.buildIDs(); x.Cycle != nil {
			b.Fatal(x.Cycle)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	g := benchDAG(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Clone()
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	g := benchDAG(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := g.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		var back Graph
		if err := back.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
