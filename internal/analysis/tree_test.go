package analysis_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// spanTree floods g from root with only the spantree analysis attached and
// returns the tree it built.
func spanTree(t *testing.T, g *graph.Graph, root graph.NodeID) *analysis.Tree {
	t.Helper()
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(root), sim.WithAnalysis("spantree"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tree, ok := sess.SpanTree()
	if !ok {
		t.Fatal("no spantree analyzer on session")
	}
	return tree
}

// TestSpanTreeSmallCases pins exact trees on hand-checkable instances,
// including the smallest-sender tie-break and a partial tree on a
// disconnected graph, and checks the Tree accessors against each.
func TestSpanTreeSmallCases(t *testing.T) {
	disconnected, err := graph.FromEdges("", 5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		root   graph.NodeID
		parent []graph.NodeID
		depth  []int
	}{
		{"path", gen.Path(5), 2, []graph.NodeID{1, 2, 2, 2, 3}, []int{2, 1, 0, 1, 2}},
		// From b, a and c both adopt b; nothing adopts the later echoes.
		{"triangle", gen.Cycle(3), 1, []graph.NodeID{1, 1, 1}, []int{1, 0, 1}},
		// Node 2 hears 1 and 3 in the same round: the smallest sender wins.
		{"smallestSenderWinsTies", gen.Cycle(4), 0, []graph.NodeID{0, 0, 1, 0}, []int{0, 1, 2, 1}},
		// Only the root's component is reached; the rest keep themselves
		// as parent at depth -1.
		{"disconnectedPartialTree", disconnected, 0, []graph.NodeID{0, 0, 1, 3, 4}, []int{0, 1, 2, -1, -1}},
		{"grid", gen.Grid(3, 3), 0, []graph.NodeID{0, 0, 1, 0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 1, 2, 3, 2, 3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := spanTree(t, tc.g, tc.root)
			if !slices.Equal(tree.Parent, tc.parent) || !slices.Equal(tree.Depth, tc.depth) {
				t.Fatalf("parents %v depths %v, want %v %v", tree.Parent, tree.Depth, tc.parent, tc.depth)
			}
			if err := tree.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			reached := 0
			for v, d := range tc.depth {
				node := graph.NodeID(v)
				path := tree.PathToRoot(node)
				if tree.Reached(node) != (d >= 0) {
					t.Fatalf("Reached(%d) = %t at depth %d", v, tree.Reached(node), d)
				}
				if d < 0 {
					if path != nil {
						t.Fatalf("path %v from unreached node %d", path, v)
					}
					continue
				}
				reached++
				if path[0] != node || path[len(path)-1] != tc.root || len(path)-1 != d {
					t.Fatalf("path %v from node %d at depth %d", path, v, d)
				}
			}
			edges := tree.Edges()
			if len(edges) != reached-1 {
				t.Fatalf("%d edges for %d reached nodes", len(edges), reached)
			}
			for _, e := range edges {
				if e.U != tc.parent[e.V] {
					t.Fatalf("edge %v is not (parent, child)", e)
				}
			}
		})
	}
}

// TestSpanTreeIsAlwaysBFSTree: on seeded random connected graphs from
// random roots, the tree is valid and every depth is the node's BFS
// distance from the root.
func TestSpanTreeIsAlwaysBFSTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range randomGraphs(t) {
		root := graph.NodeID(rng.Intn(g.N()))
		tree := spanTree(t, g, root)
		if err := tree.Validate(g); err != nil {
			t.Fatalf("%s from %d: %v", g, root, err)
		}
		if !slices.Equal(tree.Depth, algo.BFS(g, root)) {
			t.Fatalf("%s from %d: tree depths are not the BFS distances", g, root)
		}
	}
}

// TestTreeValidateRejectsCorruption: Validate catches a parent that is not
// a graph neighbour and a depth that breaks the parent-plus-one rule.
func TestTreeValidateRejectsCorruption(t *testing.T) {
	g := gen.Path(4)
	tree := spanTree(t, g, 0)
	tree.Parent[3] = 0 // not a graph edge to 3
	if err := tree.Validate(g); err == nil {
		t.Fatal("corrupt parent accepted")
	}
	tree = spanTree(t, g, 0)
	tree.Depth[2] = 5
	if err := tree.Validate(g); err == nil {
		t.Fatal("corrupt depth accepted")
	}
}
