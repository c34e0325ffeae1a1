package analysis

import (
	"fmt"

	"amnesiacflood/internal/graph"
)

// Tree is a rooted spanning tree (or forest restricted to the root's
// component) extracted from a flood. It is the artifact of the spantree
// analysis, returned by sim.Session.SpanTree.
type Tree struct {
	Root graph.NodeID
	// Parent[v] is v's tree parent; the root and unreached nodes are
	// their own parent.
	Parent []graph.NodeID
	// Depth[v] is the tree depth (root = 0); unreached nodes have -1.
	Depth []int
}

// Edges returns the tree edges (parent, child), sorted by child.
func (t *Tree) Edges() []graph.Edge {
	var edges []graph.Edge
	for v, p := range t.Parent {
		if graph.NodeID(v) != p {
			edges = append(edges, graph.Edge{U: p, V: graph.NodeID(v)})
		}
	}
	return edges
}

// Reached reports whether v is in the root's component.
func (t *Tree) Reached(v graph.NodeID) bool {
	return t.Depth[v] >= 0
}

// PathToRoot returns the node sequence from v up to the root, inclusive.
// It returns nil for unreached nodes.
func (t *Tree) PathToRoot(v graph.NodeID) []graph.NodeID {
	if !t.Reached(v) {
		return nil
	}
	path := []graph.NodeID{v}
	for v != t.Root {
		v = t.Parent[v]
		path = append(path, v)
	}
	return path
}

// Validate checks the structural invariants: tree edges are graph edges,
// depths decrease by exactly one toward the root, every reached non-root
// node has a reached parent, and the edge count matches the reached count.
func (t *Tree) Validate(g *graph.Graph) error {
	reached, edges := 0, 0
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		if !t.Reached(node) {
			continue
		}
		reached++
		if node == t.Root {
			if t.Depth[v] != 0 {
				return fmt.Errorf("spantree: root depth %d", t.Depth[v])
			}
			continue
		}
		edges++
		p := t.Parent[v]
		if !g.HasEdge(p, node) {
			return fmt.Errorf("spantree: tree edge (%d,%d) is not a graph edge", p, node)
		}
		if !t.Reached(p) || t.Depth[p] != t.Depth[v]-1 {
			return fmt.Errorf("spantree: node %d depth %d but parent %d depth %d",
				node, t.Depth[v], p, t.Depth[p])
		}
	}
	if edges != reached-1 {
		return fmt.Errorf("spantree: %d edges for %d reached nodes", edges, reached)
	}
	return nil
}
