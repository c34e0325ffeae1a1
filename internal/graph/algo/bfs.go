// Package algo implements the classical graph algorithms the reproduction
// needs as ground truth: BFS distances, eccentricity/diameter/radius,
// bipartiteness testing with two-colouring and odd-cycle witnesses, and
// connectivity.
//
// Every result the simulators produce is checked against these reference
// implementations (for example: amnesiac flooding on a bipartite graph must
// take exactly Eccentricity(source) rounds, per Lemma 2.1 of the paper).
package algo

import (
	"amnesiacflood/internal/graph"
)

// Unreachable is the distance reported for nodes not reachable from the
// source.
const Unreachable = -1

// BFS returns the vector of hop distances from source to every node.
// Unreachable nodes get Unreachable (-1).
func BFS(g *graph.Graph, source graph.NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.HasNode(source) {
		return dist
	}
	dist[source] = 0
	queue := make([]graph.NodeID, 0, g.N())
	queue = append(queue, source)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSMulti returns hop distances from the nearest of several sources, the
// multi-source analogue of BFS. It is the reference for multi-source
// amnesiac flooding on bipartite graphs.
func BFSMulti(g *graph.Graph, sources []graph.NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]graph.NodeID, 0, g.N())
	for _, s := range sources {
		if g.HasNode(s) && dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the greatest hop distance from v to any node of its
// connected component, i.e. e(v) in the paper's notation.
func Eccentricity(g *graph.Graph, v graph.NodeID) int {
	ecc := 0
	for _, d := range BFS(g, v) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over all nodes. For a graph with
// more than one connected component it returns the maximum over components
// (unreachable pairs are ignored); the empty graph has diameter 0.
func Diameter(g *graph.Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := Eccentricity(g, graph.NodeID(v)); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterLowerBound returns the two-sweep lower bound on the diameter
// (Magnien, Latapy & Habib, ACM JEA 2009): a BFS from node 0 finds a
// farthest node u, and the bound is e(u). It costs two BFS, O(n+m), where
// Diameter costs one per node. The bound is exact on trees and on
// vertex-transitive graphs and never exceeds Diameter; on a disconnected
// graph it describes node 0's component. The empty graph gets 0.
func DiameterLowerBound(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	dist := BFS(g, 0)
	far := 0
	for v, d := range dist {
		if d > dist[far] {
			far = v
		}
	}
	return Eccentricity(g, graph.NodeID(far))
}

// Radius returns the minimum eccentricity over all nodes of a connected
// graph. For the empty graph it returns 0.
func Radius(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	rad := Eccentricity(g, 0)
	for v := 1; v < g.N(); v++ {
		if e := Eccentricity(g, graph.NodeID(v)); e < rad {
			rad = e
		}
	}
	return rad
}

// Connected reports whether g is connected. The empty graph and singletons
// are connected.
func Connected(g *graph.Graph) bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range BFS(g, 0) {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components of g as sorted node slices,
// ordered by their smallest member.
func Components(g *graph.Graph) [][]graph.NodeID {
	seen := make([]bool, g.N())
	var comps [][]graph.NodeID
	for start := 0; start < g.N(); start++ {
		if seen[start] {
			continue
		}
		var comp []graph.NodeID
		queue := []graph.NodeID{graph.NodeID(start)}
		seen[start] = true
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
