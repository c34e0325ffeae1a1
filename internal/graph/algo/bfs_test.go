package algo_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

func TestBFSPath(t *testing.T) {
	g := gen.Path(5)
	got := algo.BFS(g, 0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("algo.BFS(path, 0) = %v, want %v", got, want)
	}
	got = algo.BFS(g, 2)
	want = []int{2, 1, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("algo.BFS(path, 2) = %v, want %v", got, want)
	}
}

func TestBFSCycle(t *testing.T) {
	g := gen.Cycle(6)
	got := algo.BFS(g, 0)
	want := []int{0, 1, 2, 3, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("algo.BFS(C6, 0) = %v, want %v", got, want)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g, err := graph.FromEdges("two pairs", 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	got := algo.BFS(g, 0)
	want := []int{0, 1, algo.Unreachable, algo.Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("algo.BFS(disconnected, 0) = %v, want %v", got, want)
	}
}

func TestBFSInvalidSource(t *testing.T) {
	g := gen.Path(3)
	got := algo.BFS(g, 99)
	for v, d := range got {
		if d != algo.Unreachable {
			t.Fatalf("BFS with invalid source: dist[%d] = %d, want -1", v, d)
		}
	}
}

func TestBFSMulti(t *testing.T) {
	g := gen.Path(7)
	got := algo.BFSMulti(g, []graph.NodeID{0, 6})
	want := []int{0, 1, 2, 3, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("algo.BFSMulti(path7, {0,6}) = %v, want %v", got, want)
	}
}

func TestBFSMultiEmptySources(t *testing.T) {
	g := gen.Path(3)
	for _, d := range algo.BFSMulti(g, nil) {
		if d != algo.Unreachable {
			t.Fatal("BFSMulti with no sources reached a node")
		}
	}
}

func TestEccentricityDiameterRadius(t *testing.T) {
	cases := []struct {
		name         string
		g            *graph.Graph
		source       graph.NodeID
		ecc          int
		diam, radius int
	}{
		{"path5 end", gen.Path(5), 0, 4, 4, 2},
		{"path5 mid", gen.Path(5), 2, 2, 4, 2},
		{"C6", gen.Cycle(6), 0, 3, 3, 3},
		{"C7", gen.Cycle(7), 3, 3, 3, 3},
		{"K5", gen.Complete(5), 0, 1, 1, 1},
		{"star10 hub", gen.Star(10), 0, 1, 2, 1},
		{"star10 leaf", gen.Star(10), 5, 2, 2, 1},
		{"hypercube4", gen.Hypercube(4), 0, 4, 4, 4},
		{"grid3x4 corner", gen.Grid(3, 4), 0, 5, 5, 3},
		{"petersen", gen.Petersen(), 0, 2, 2, 2},
		{"singleton", gen.Path(1), 0, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := algo.Eccentricity(tc.g, tc.source); got != tc.ecc {
				t.Errorf("algo.Eccentricity(%s, %d) = %d, want %d", tc.g, tc.source, got, tc.ecc)
			}
			if got := algo.Diameter(tc.g); got != tc.diam {
				t.Errorf("algo.Diameter(%s) = %d, want %d", tc.g, got, tc.diam)
			}
			if got := algo.Radius(tc.g); got != tc.radius {
				t.Errorf("algo.Radius(%s) = %d, want %d", tc.g, got, tc.radius)
			}
		})
	}
}

func TestConnected(t *testing.T) {
	if !algo.Connected(gen.Path(10)) {
		t.Error("path reported disconnected")
	}
	if !algo.Connected(gen.Path(1)) {
		t.Error("singleton reported disconnected")
	}
	empty, _ := graph.FromEdges("", 0, nil)
	if !algo.Connected(empty) {
		t.Error("empty graph reported disconnected")
	}
	two, _ := graph.FromEdges("", 2, nil)
	if algo.Connected(two) {
		t.Error("two isolated nodes reported connected")
	}
}

func TestComponents(t *testing.T) {
	g, err := graph.FromEdges("", 6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	comps := algo.Components(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (%v)", len(comps), comps)
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	if !reflect.DeepEqual(sizes, []int{3, 1, 2}) {
		t.Fatalf("component sizes = %v, want [3 1 2]", sizes)
	}
}

func TestRadiusLeDiameterLe2Radius(t *testing.T) {
	// Property: for connected graphs, radius <= diameter <= 2*radius.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		r, d := algo.Radius(g), algo.Diameter(g)
		return r <= d && d <= 2*r
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSTriangleInequality(t *testing.T) {
	// Property: BFS distances satisfy |d(u) - d(v)| <= 1 across any edge.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		dist := algo.BFS(g, 0)
		for _, e := range g.Edges() {
			diff := dist[e.U] - dist[e.V]
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterLowerBound(t *testing.T) {
	// Two-sweep is exact on paths, cycles, cliques, stars, hypercubes,
	// grids and the Petersen graph.
	for _, g := range []*graph.Graph{
		gen.Path(5), gen.Cycle(6), gen.Cycle(7), gen.Complete(5), gen.Star(10),
		gen.Hypercube(4), gen.Grid(3, 4), gen.Petersen(), gen.Path(1),
	} {
		if got, want := algo.DiameterLowerBound(g), algo.Diameter(g); got != want {
			t.Errorf("algo.DiameterLowerBound(%s) = %d, want %d", g, got, want)
		}
	}
	empty, _ := graph.FromEdges("", 0, nil)
	if got := algo.DiameterLowerBound(empty); got != 0 {
		t.Errorf("algo.DiameterLowerBound(empty) = %d, want 0", got)
	}
	// Property: radius <= LB <= diameter on connected graphs.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		lb := algo.DiameterLowerBound(g)
		return algo.Radius(g) <= lb && lb <= algo.Diameter(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
