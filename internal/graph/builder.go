package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Common builder errors, matchable with errors.Is.
var (
	// ErrSelfLoop is returned when an edge joins a node to itself.
	ErrSelfLoop = errors.New("self-loop is not allowed in a simple graph")
	// ErrNodeOutOfRange is returned when an edge references a node outside
	// 0..n-1.
	ErrNodeOutOfRange = errors.New("node identifier out of range")
	// ErrNoNodes is returned when building a graph with a negative node
	// count.
	ErrNoNodes = errors.New("node count must be non-negative")
	// ErrTooManyEdges is returned when the graph exceeds the CSR view's
	// int32 offset capacity of 2^31-1 directed edges.
	ErrTooManyEdges = errors.New("graph exceeds 2^31-1 directed edges (CSR offset capacity)")
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are tolerated and collapsed (the result is always a simple
// graph). Builders are not safe for concurrent use.
type Builder struct {
	name  string
	n     int
	edges []Edge
	err   error
}

// NewBuilder returns a builder for a graph over n nodes (identifiers
// 0..n-1). A negative n is reported at Build time.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.err = fmt.Errorf("builder: %w: %d", ErrNoNodes, n)
	}
	return b
}

// Name sets the human-readable graph name and returns the builder for
// chaining.
func (b *Builder) Name(name string) *Builder {
	b.name = name
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (self-loop, out of
// range) are sticky and reported by Build.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if u == v {
		b.err = fmt.Errorf("builder: edge (%d,%d): %w", u, v, ErrSelfLoop)
		return b
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.err = fmt.Errorf("builder: edge (%d,%d) with n=%d: %w", u, v, b.n, ErrNodeOutOfRange)
		return b
	}
	b.edges = append(b.edges, Edge{U: u, V: v}.Normalize())
	return b
}

// AddPath records edges joining consecutive nodes of the given walk.
func (b *Builder) AddPath(walk ...NodeID) *Builder {
	for i := 1; i < len(walk); i++ {
		b.AddEdge(walk[i-1], walk[i])
	}
	return b
}

// Build validates the accumulated edges and returns the immutable graph.
// Its normalised edges, sorted and with duplicates dropped, are in
// forward-row order, so FromRows lays them out in one pass.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.SortFunc(b.edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	b.edges = slices.Compact(b.edges)
	return FromRows(b.name, b.n, 2*len(b.edges), func(add func(u, v NodeID)) error {
		for _, e := range b.edges {
			add(e.U, e.V)
		}
		return nil
	})
}

// MustBuild is Build for graphs known to be valid by construction, such as
// the generators in the gen subpackage. It panics on error and must not be
// used with untrusted input.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a named graph over n nodes from an edge list.
func FromEdges(name string, n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n).Name(name)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
