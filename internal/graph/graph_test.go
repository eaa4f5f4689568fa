package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// chain returns 0->1->2->...->n-1.
func chain(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if s := g.Stats(); s.Vertices != 0 {
		t.Fatalf("stats on empty graph: %+v", s)
	}
}

func TestBuilderCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 0)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()

	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Errorf("out(0) = %v, want [1 2]", got)
	}
	if got := g.InNeighbors(2); !reflect.DeepEqual(got, []VertexID{0, 1}) {
		t.Errorf("in(2) = %v, want [0 1]", got)
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 0 {
		t.Errorf("vertex 3 should be isolated")
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestDedupe(t *testing.T) {
	b := NewBuilder(2).Dedupe(true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d after dedupe, want 2", g.NumEdges())
	}
}

func TestSelfEdgeAccounting(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(1, 2)
	b.AddEdge(2, 2)
	g := b.Build()
	if g.SelfEdges() != 2 {
		t.Fatalf("SelfEdges = %d, want 2", g.SelfEdges())
	}
	clean := g.WithoutSelfEdges()
	if clean.SelfEdges() != 0 || clean.NumEdges() != 1 {
		t.Fatalf("WithoutSelfEdges left %d self edges of %d", clean.SelfEdges(), clean.NumEdges())
	}
	if clean.NumVertices() != 3 {
		t.Fatalf("WithoutSelfEdges changed vertex count")
	}
	// No self edges: same graph must be returned unchanged.
	if clean.WithoutSelfEdges() != clean {
		t.Error("WithoutSelfEdges should be identity when no self edges exist")
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	g := b.Build()
	s := g.Stats()
	if s.MaxOutDegree != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", s.MaxOutDegree)
	}
	if s.MaxInDegree != 2 {
		t.Errorf("MaxInDegree = %d, want 2", s.MaxInDegree)
	}
	if s.AvgOutDegree != 1.0 {
		t.Errorf("AvgOutDegree = %f, want 1.0", s.AvgOutDegree)
	}
}

func TestUndirected(t *testing.T) {
	g := chain(3).Undirected()
	if g.NumEdges() != 4 {
		t.Fatalf("undirected chain(3) has %d edges, want 4", g.NumEdges())
	}
	if !reflect.DeepEqual(g.OutNeighbors(1), []VertexID{0, 2}) {
		t.Errorf("out(1) = %v, want [0 2]", g.OutNeighbors(1))
	}
}

func TestUndirectedKeepsSelfEdge(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	g := b.Build().Undirected()
	if g.NumEdges() != 1 {
		t.Fatalf("undirected self-loop graph has %d edges, want 1", g.NumEdges())
	}
}

func TestScaleFactorDefault(t *testing.T) {
	g := NewBuilder(1).Build()
	if g.ScaleFactor() != 1 {
		t.Fatalf("default ScaleFactor = %f, want 1", g.ScaleFactor())
	}
	g2 := NewBuilder(1).SetScaleFactor(5000).Build()
	if g2.ScaleFactor() != 5000 {
		t.Fatalf("ScaleFactor = %f, want 5000", g2.ScaleFactor())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// A graph with an isolated vertex and a sink-only vertex, which
	// stresses the differences between the three formats.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(3, 0)
	g := b.Build() // vertex 2 isolated, vertex 4 isolated

	for _, f := range []Format{FormatAdj, FormatAdjLong, FormatEdge} {
		var buf bytes.Buffer
		if err := Encode(g, f, &buf); err != nil {
			t.Fatalf("%v: encode: %v", f, err)
		}
		got, err := Decode(&buf, f, g.NumVertices())
		if err != nil {
			t.Fatalf("%v: decode: %v", f, err)
		}
		if !sameGraph(g, got) {
			t.Errorf("%v: round trip mismatch", f)
		}
	}
}

func TestAdjLongHasLinePerVertex(t *testing.T) {
	g := chain(3)
	var buf bytes.Buffer
	if err := Encode(g, FormatAdjLong, &buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if lines != 3 {
		t.Fatalf("adj-long produced %d lines, want one per vertex (3)", lines)
	}
	// adj format omits the sink-only final vertex.
	buf.Reset()
	if err := Encode(g, FormatAdj, &buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte{'\n'}); lines != 2 {
		t.Fatalf("adj produced %d lines, want 2", lines)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name  string
		f     Format
		input string
	}{
		{"edge wrong fields", FormatEdge, "0 1 2\n"},
		{"edge bad id", FormatEdge, "0 x\n"},
		{"edge out of range", FormatEdge, "0 99\n"},
		{"adj-long bad count", FormatAdjLong, "0 3 1\n"},
		{"adj-long short line", FormatAdjLong, "0\n"},
		{"adj bad id", FormatAdj, "0 zz\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader([]byte(tc.input)), tc.f, 3); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestDecodeSkipsCommentsAndBlank(t *testing.T) {
	input := "# header\n\n0 1\n"
	g, err := Decode(bytes.NewReader([]byte(input)), FormatEdge, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBFSDistances(t *testing.T) {
	g := chain(5)
	d := BFSDistances(g, 0)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("BFS distances = %v, want %v", d, want)
	}
	// From the tail nothing is reachable (directed chain).
	d = BFSDistances(g, 4)
	for v := 0; v < 4; v++ {
		if d[v] != -1 {
			t.Errorf("dist[%d] = %d, want -1", v, d[v])
		}
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := chain(10)
	if ecc := Eccentricity(g, 0); ecc != 9 {
		t.Fatalf("Eccentricity = %d, want 9", ecc)
	}
	if d := EstimateDiameter(g, 3, 1); d != 9 {
		t.Fatalf("EstimateDiameter = %d, want 9 for a chain", d)
	}
}

func TestLargestComponentFraction(t *testing.T) {
	// Two components: sizes 3 and 1.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if f := LargestComponentFraction(g); f != 0.75 {
		t.Fatalf("LargestComponentFraction = %f, want 0.75", f)
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !reflect.DeepEqual(a.OutNeighbors(VertexID(v)), b.OutNeighbors(VertexID(v))) {
			return false
		}
	}
	return true
}

// Property: encode/decode round trips for random graphs in all formats.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n).Dedupe(true)
		m := rng.Intn(60)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		for _, format := range []Format{FormatAdj, FormatAdjLong, FormatEdge} {
			var buf bytes.Buffer
			if err := Encode(g, format, &buf); err != nil {
				return false
			}
			got, err := Decode(&buf, format, n)
			if err != nil {
				return false
			}
			if !sameGraph(g, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: in-edges are exactly the transpose of out-edges.
func TestQuickTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(120); i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		var fwd, bwd []Edge
		g.Edges(func(s, d VertexID) bool { fwd = append(fwd, Edge{s, d}); return true })
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(VertexID(v)) {
				bwd = append(bwd, Edge{u, VertexID(v)})
			}
		}
		sortEdges(fwd)
		sortEdges(bwd)
		return reflect.DeepEqual(fwd, bwd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

func TestDecodeRejectsOverflowingIDs(t *testing.T) {
	// 2^64 wraps to exactly 0 in naive accumulation; the parser must
	// report it instead of silently inserting edge (0,5).
	for _, in := range []string{"18446744073709551616 5", "20000000000000000005 5", "99999999999999999999999 5"} {
		if _, err := Decode(bytes.NewReader([]byte(in)), FormatEdge, 10); err == nil {
			t.Errorf("Decode accepted overflowing vertex id in %q", in)
		}
	}
}
