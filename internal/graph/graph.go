// Package graph provides the immutable undirected-graph substrate used by
// every simulation in this repository.
//
// The amnesiac-flooding paper (Hussak & Trehan, PODC 2019) models the network
// as a finite simple undirected graph G(V, E). This package implements that
// model: simple graphs (no self-loops, no parallel edges), dense node
// identifiers 0..n-1, and adjacency lists that are sorted so every traversal
// in the repository is deterministic.
//
// A Graph is its CSR: one arena of sorted neighbour rows, which every
// accessor reads and the engines index directly. Three constructors lay it
// out: FromRows in one pass over edges in forward-row order, FromStream in
// two passes over edges in any order, and the Builder, which collects
// edges, sorts and deduplicates them into forward-row order and hands them
// to FromRows. Graphs are immutable once built; all accessors are safe for
// concurrent use.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node. Node identifiers are dense: a graph over n nodes
// uses exactly the identifiers 0..n-1.
type NodeID int

// Edge is an undirected edge between two nodes. Edges returned by Graph
// methods are normalised so that U < V.
type Edge struct {
	U, V NodeID
}

// Normalize returns the same edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not x. The second return is false
// if x is not an endpoint of e.
func (e Edge) Other(x NodeID) (NodeID, bool) {
	switch x {
	case e.U:
		return e.V, true
	case e.V:
		return e.U, true
	default:
		return 0, false
	}
}

// String renders the edge as "(u,v)".
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d)", e.U, e.V)
}

// Graph is an immutable simple undirected graph: a name and the CSR that
// holds its adjacency, once. The zero value is the empty graph with no
// nodes. Construct non-trivial graphs with a Builder, FromStream or
// FromRows.
type Graph struct {
	name string
	csr  CSR
}

// CSR is a graph's adjacency in compressed-sparse-row form: one flat arena
// of neighbour identifiers plus per-node offsets into it. Row v occupies
// Targets[Offsets[v]:Offsets[v+1]] and is sorted ascending. It is the
// graph's only copy of its adjacency: Neighbors, Degree, HasEdge and Edges
// all read it.
//
// The layout serves the hot simulation loops: a single contiguous arena
// keeps neighbour scans cache-friendly and lets engines index adjacency with
// no per-node slice headers or pointer chasing. Offsets are int32, which caps
// supported graphs at ~2^31 directed edges — far beyond anything this
// repository simulates.
//
// Both slices are shared with the graph and must not be modified.
type CSR struct {
	// Offsets has length n+1; Offsets[0] is 0 and Offsets[n] is 2m.
	Offsets []int32
	// Targets concatenates all sorted neighbour lists; length 2m.
	Targets []NodeID
}

// Row returns the sorted neighbour list of v as a subslice of the arena,
// capped at its length, so an append to it copies instead of writing over
// row v+1.
func (c CSR) Row(v NodeID) []NodeID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]:c.Offsets[v+1]]
}

// Degree returns the number of neighbours of v.
func (c CSR) Degree(v NodeID) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// N returns the number of nodes covered by the view.
func (c CSR) N() int {
	if len(c.Offsets) == 0 {
		return 0
	}
	return len(c.Offsets) - 1
}

// CSR returns the graph's adjacency. For the zero-value empty graph it has
// no rows (Row must not be called). Safe for concurrent use, like all
// accessors.
func (g *Graph) CSR() CSR {
	return g.csr
}

// Name returns the optional human-readable name given at build time (for
// example "cycle(6)"). It is used only for reporting.
func (g *Graph) Name() string {
	return g.name
}

// N returns the number of nodes.
func (g *Graph) N() int {
	return g.csr.N()
}

// M returns the number of undirected edges.
func (g *Graph) M() int {
	return len(g.csr.Targets) / 2
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v NodeID) int {
	return g.csr.Degree(v)
}

// Neighbors returns the sorted neighbour list of v: its CSR row, capped at
// its length. The slice is shared with the graph and must not be modified;
// an append to it copies.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.csr.Row(v)
}

// HasNode reports whether v is a valid node identifier for this graph.
func (g *Graph) HasNode(v NodeID) bool {
	return v >= 0 && int(v) < g.N()
}

// HasEdge reports whether {u, v} is an edge. It runs in O(log min(deg(u),
// deg(v))) time: a binary search of the shorter row.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.HasNode(u) || !g.HasNode(v) || u == v {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.csr.Row(u), v)
	return found
}

// Edges returns all undirected edges, normalised (U < V) and sorted
// lexicographically. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := range NodeID(g.N()) {
		for _, v := range g.csr.Row(u) {
			if u < v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// Nodes returns all node identifiers 0..n-1. The slice is freshly allocated.
func (g *Graph) Nodes() []NodeID {
	nodes := make([]NodeID, g.N())
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return nodes
}

// MaxDegree returns the maximum degree over all nodes, or 0 for the empty
// graph.
func (g *Graph) MaxDegree() int {
	deg := 0
	for v := range NodeID(g.N()) {
		deg = max(deg, g.Degree(v))
	}
	return deg
}

// MinDegree returns the minimum degree over all nodes, or 0 for the empty
// graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	deg := g.Degree(0)
	for v := range NodeID(g.N()) {
		deg = min(deg, g.Degree(v))
	}
	return deg
}

// AvgDegree returns the average degree 2m/n, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// Renamed returns a view of g under a different name. The copy shares g's
// CSR (graphs are immutable, so sharing is safe); only the reporting name
// differs. The generator registry uses it to stamp graphs
// with their canonical spec string.
func Renamed(g *Graph, name string) *Graph {
	h := *g
	h.name = name
	return &h
}

// String renders a short human-readable summary such as
// "cycle(6){n=6 m=6}".
func (g *Graph) String() string {
	var sb strings.Builder
	if g.name != "" {
		sb.WriteString(g.name)
	} else {
		sb.WriteString("graph")
	}
	fmt.Fprintf(&sb, "{n=%d m=%d}", g.N(), g.M())
	return sb.String()
}
