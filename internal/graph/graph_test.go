package graph

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build() error: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild(t, NewBuilder(0))
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d, want 0 0", g.N(), g.M())
	}
	if len(g.Edges()) != 0 || len(g.Nodes()) != 0 {
		t.Fatalf("empty graph has edges or nodes")
	}
	if g.MaxDegree() != 0 || g.MinDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("empty graph degree stats non-zero")
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("zero value: n=%d m=%d, want 0 0", g.N(), g.M())
	}
	if g.HasNode(0) {
		t.Fatal("zero-value graph claims to have node 0")
	}
}

func TestSingleNode(t *testing.T) {
	g := mustBuild(t, NewBuilder(1))
	if g.N() != 1 || g.M() != 0 || g.Degree(0) != 0 {
		t.Fatalf("singleton: n=%d m=%d deg=%d", g.N(), g.M(), g.Degree(0))
	}
}

func TestBuilderTriangle(t *testing.T) {
	g := mustBuild(t, NewBuilder(3).Name("tri").AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0))
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("triangle: n=%d m=%d, want 3 3", g.N(), g.M())
	}
	if g.Name() != "tri" {
		t.Fatalf("name = %q, want tri", g.Name())
	}
	for u := NodeID(0); u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, g.Degree(u))
		}
		for v := NodeID(0); v < 3; v++ {
			want := u != v
			if got := g.HasEdge(u, v); got != want {
				t.Errorf("HasEdge(%d,%d) = %t, want %t", u, v, got, want)
			}
		}
	}
}

func TestBuilderCollapsesDuplicates(t *testing.T) {
	g := mustBuild(t, NewBuilder(2).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1))
	if g.M() != 1 {
		t.Fatalf("duplicate edges not collapsed: m = %d, want 1", g.M())
	}
	if deg := g.Degree(0); deg != 1 {
		t.Fatalf("degree(0) = %d, want 1", deg)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	_, err := NewBuilder(3).AddEdge(1, 1).Build()
	if !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self-loop error = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	for _, e := range []Edge{{0, 3}, {3, 0}, {-1, 0}, {0, -1}} {
		_, err := NewBuilder(3).AddEdge(e.U, e.V).Build()
		if !errors.Is(err, ErrNodeOutOfRange) {
			t.Errorf("edge %v error = %v, want ErrNodeOutOfRange", e, err)
		}
	}
}

func TestBuilderRejectsNegativeN(t *testing.T) {
	_, err := NewBuilder(-1).Build()
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("negative n error = %v, want ErrNoNodes", err)
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(3).AddEdge(5, 0) // error
	b.AddEdge(0, 1)                  // valid, but after error
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() after bad edge succeeded, want error")
	}
}

func TestAddPath(t *testing.T) {
	g := mustBuild(t, NewBuilder(4).AddPath(0, 1, 2, 3))
	if g.M() != 3 {
		t.Fatalf("path edges = %d, want 3", g.M())
	}
	for i := NodeID(0); i < 3; i++ {
		if !g.HasEdge(i, i+1) {
			t.Errorf("missing path edge (%d,%d)", i, i+1)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on invalid input did not panic")
		}
	}()
	NewBuilder(1).AddEdge(0, 0).MustBuild()
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges("square", 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.N() != 4 || g.M() != 4 || g.Name() != "square" {
		t.Fatalf("FromEdges result: %s", g)
	}
}

func TestEdgesSortedAndNormalized(t *testing.T) {
	g := mustBuild(t, NewBuilder(4).AddEdge(3, 1).AddEdge(2, 0).AddEdge(1, 0))
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustBuild(t, NewBuilder(5).AddEdge(2, 4).AddEdge(2, 0).AddEdge(2, 3).AddEdge(2, 1))
	nbrs := g.Neighbors(2)
	if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
		t.Fatalf("neighbours not sorted: %v", nbrs)
	}
	if len(nbrs) != 4 {
		t.Fatalf("degree(2) = %d, want 4", len(nbrs))
	}
}

func TestDegreeStats(t *testing.T) {
	// Star over 5 nodes: hub degree 4, leaves degree 1.
	b := NewBuilder(5)
	for i := NodeID(1); i < 5; i++ {
		b.AddEdge(0, i)
	}
	g := mustBuild(t, b)
	if g.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d, want 4", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Errorf("MinDegree = %d, want 1", g.MinDegree())
	}
	if got, want := g.AvgDegree(), 2*4.0/5.0; got != want {
		t.Errorf("AvgDegree = %f, want %f", got, want)
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := Edge{U: 5, V: 2}
	if n := e.Normalize(); n.U != 2 || n.V != 5 {
		t.Errorf("Normalize = %v", n)
	}
	if other, ok := e.Other(5); !ok || other != 2 {
		t.Errorf("Other(5) = %d, %t", other, ok)
	}
	if other, ok := e.Other(2); !ok || other != 5 {
		t.Errorf("Other(2) = %d, %t", other, ok)
	}
	if _, ok := e.Other(7); ok {
		t.Error("Other(7) reported membership")
	}
	if e.String() != "(5,2)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestGraphString(t *testing.T) {
	g := mustBuild(t, NewBuilder(2).Name("pair").AddEdge(0, 1))
	if got := g.String(); got != "pair{n=2 m=1}" {
		t.Errorf("String = %q", got)
	}
	unnamed := mustBuild(t, NewBuilder(1))
	if got := unnamed.String(); got != "graph{n=1 m=0}" {
		t.Errorf("unnamed String = %q", got)
	}
}

func TestHasEdgeOnRandomGraphs(t *testing.T) {
	// Property: HasEdge agrees with a brute-force adjacency set on random
	// graphs of various densities.
	rng := rand.New(rand.NewSource(42))
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(30)
		b := NewBuilder(n)
		truth := map[Edge]bool{}
		for i := 0; i < n*2; i++ {
			u, v := NodeID(local.Intn(n)), NodeID(local.Intn(n))
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			truth[Edge{U: u, V: v}.Normalize()] = true
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				want := truth[Edge{U: u, V: v}.Normalize()] && u != v
				if g.HasEdge(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	// Handshake lemma as a quick property over random builders.
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := NodeID(local.Intn(n)), NodeID(local.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		sum := 0
		for v := NodeID(0); int(v) < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMatchesNeighbors(t *testing.T) {
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := NodeID(local.Intn(n)), NodeID(local.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		csr := g.CSR()
		if csr.N() != g.N() || len(csr.Offsets) != g.N()+1 {
			return false
		}
		if csr.Offsets[0] != 0 || int(csr.Offsets[g.N()]) != 2*g.M() || len(csr.Targets) != 2*g.M() {
			return false
		}
		for v := NodeID(0); int(v) < n; v++ {
			row := csr.Row(v)
			nbrs := g.Neighbors(v)
			if len(row) != len(nbrs) || csr.Degree(v) != g.Degree(v) {
				return false
			}
			for i := range row {
				if row[i] != nbrs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSREmptyAndZeroValue(t *testing.T) {
	var zero Graph
	if csr := zero.CSR(); csr.N() != 0 {
		t.Fatalf("zero-value CSR has %d rows, want 0", csr.N())
	}
	g := mustBuild(t, NewBuilder(3)) // 3 isolated nodes
	csr := g.CSR()
	if csr.N() != 3 || len(csr.Targets) != 0 {
		t.Fatalf("isolated-node CSR: rows=%d targets=%d", csr.N(), len(csr.Targets))
	}
	for v := NodeID(0); v < 3; v++ {
		if len(csr.Row(v)) != 0 {
			t.Fatalf("isolated node %d has CSR neighbours", v)
		}
	}
}

// TestAppendToNeighborsCopies: a row handed out by Neighbors is capped at
// its length, so a caller's append copies it instead of writing over the
// next row, on a Builder graph and on a streamed one alike.
func TestAppendToNeighborsCopies(t *testing.T) {
	b := NewBuilder(6).AddPath(0, 1, 2, 3, 4, 5).AddEdge(0, 5).AddEdge(1, 4)
	built := mustBuild(t, b)
	streamed, err := FromStream("", 6, replay([][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{built, streamed} {
		for v := NodeID(0); int(v)+1 < g.N(); v++ {
			next := slices.Clone(g.Neighbors(v + 1))
			_ = append(g.Neighbors(v), 99)
			if got := g.Neighbors(v + 1); !slices.Equal(got, next) {
				t.Fatalf("appending to Neighbors(%d) changed Neighbors(%d) from %v to %v", v, v+1, next, got)
			}
		}
	}
}
