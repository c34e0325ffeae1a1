// Package gen constructs the graph families used throughout the paper and
// the experiment suite.
//
// Deterministic families (paths, cycles, cliques, grids, hypercubes, ...)
// take only size parameters. Random families take an explicit *rand.Rand so
// that every experiment is reproducible from a seed; no generator touches
// global randomness.
//
// The families cover both sides of the paper's dichotomy: bipartite graphs
// (paths, even cycles, trees, grids, hypercubes, complete bipartite) where
// amnesiac flooding terminates within the diameter, and non-bipartite graphs
// (odd cycles, cliques n>=3, wheels, Petersen, ...) where it needs up to
// 2D+1 rounds.
//
// Above the dense-sampler cutoff the registry's random families switch to
// streamed construction: gnp draws edges by geometric skip sampling in
// row-major order and builds its CSR in that one pass (graph.FromRows),
// and prefattach replays its sampler per pass (graph.FromStream), so
// million-node instances build without an O(n²) scan or an intermediate
// edge list.
// Historical outputs are frozen — at or below the cutoff the legacy
// builders run, so a (spec, seed) pair keeps producing the same graph it
// always did; their Builder lays its sorted edges out through
// graph.FromRows, so every family ends in the same CSR either way. Two families exist only streamed: rmat
// ("rmat:n=N,e=E,a=..,b=..,c=..", recursive-matrix quadrant descent over a
// power-of-two node count) and edgefile ("edgefile:path=FILE", the
// WriteEdgeList format read back through the two-pass CSR loader). edgefile
// is marked Local in the registry: it opens whatever path the spec names, so
// it is for operators with shell access — remote-facing resolvers (the
// afsimd service) reject Local families.
package gen

import (
	"fmt"

	"amnesiacflood/internal/graph"
)

// Path returns the path graph P_n: nodes 0..n-1 joined in a line.
// Bipartite; diameter n-1. Figure 1 of the paper is Path(4).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n).Name(fmt.Sprintf("path(%d)", n))
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph C_n (n >= 3). Bipartite iff n is even.
// Figure 2 is Cycle(3), Figure 3 is Cycle(6).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: cycle needs n >= 3, got %d", n))
	}
	b := graph.NewBuilder(n).Name(fmt.Sprintf("cycle(%d)", n))
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n. Non-bipartite for n >= 3;
// diameter 1. The triangle of Figure 2 is also Complete(3).
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n).Name(fmt.Sprintf("complete(%d)", n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1}: node 0 joined to all others. Bipartite;
// diameter 2 (for n >= 3).
func Star(n int) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: star needs n >= 1, got %d", n))
	}
	b := graph.NewBuilder(n).Name(fmt.Sprintf("star(%d)", n))
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	return b.MustBuild()
}

// Wheel returns the wheel W_n: a cycle over nodes 1..n-1 plus hub node 0
// joined to every rim node (n >= 4). Always non-bipartite (contains
// triangles); diameter <= 2.
func Wheel(n int) *graph.Graph {
	if n < 4 {
		panic(fmt.Sprintf("gen: wheel needs n >= 4, got %d", n))
	}
	rim := n - 1
	b := graph.NewBuilder(n).Name(fmt.Sprintf("wheel(%d)", n))
	for i := 1; i <= rim; i++ {
		b.AddEdge(0, graph.NodeID(i))
		next := i%rim + 1
		b.AddEdge(graph.NodeID(i), graph.NodeID(next))
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}: every one of the first a nodes joined
// to every one of the last b nodes. Bipartite; diameter 2 for a, b >= 2.
func CompleteBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b).Name(fmt.Sprintf("completeBipartite(%d,%d)", a, b))
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(graph.NodeID(i), graph.NodeID(a+j))
		}
	}
	return bld.MustBuild()
}

// Grid returns the rows x cols grid graph. Bipartite; diameter
// rows+cols-2.
func Grid(rows, cols int) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("gen: grid needs positive dimensions, got %dx%d", rows, cols))
	}
	b := graph.NewBuilder(rows * cols).Name(fmt.Sprintf("grid(%dx%d)", rows, cols))
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the rows x cols torus (grid with wraparound). Bipartite iff
// both dimensions are even.
func Torus(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("gen: torus needs dimensions >= 3, got %dx%d", rows, cols))
	}
	b := graph.NewBuilder(rows * cols).Name(fmt.Sprintf("torus(%dx%d)", rows, cols))
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.MustBuild()
}

// Hypercube returns the d-dimensional hypercube Q_d over 2^d nodes.
// Bipartite; diameter d.
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("gen: hypercube dimension out of range: %d", d))
	}
	n := 1 << d
	b := graph.NewBuilder(n).Name(fmt.Sprintf("hypercube(%d)", d))
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.AddEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	return b.MustBuild()
}

// Petersen returns the Petersen graph: 10 nodes, 15 edges, girth 5,
// non-bipartite, diameter 2. A classic adversarial topology.
func Petersen() *graph.Graph {
	b := graph.NewBuilder(10).Name("petersen")
	// Outer 5-cycle 0..4, inner 5-star 5..9, spokes i -- i+5.
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%5))
		b.AddEdge(graph.NodeID(5+i), graph.NodeID(5+(i+2)%5))
		b.AddEdge(graph.NodeID(i), graph.NodeID(5+i))
	}
	return b.MustBuild()
}

// Barbell returns two cliques K_k joined by a path of pathLen extra nodes
// (pathLen >= 0; pathLen == 0 joins the cliques by a single edge).
// Non-bipartite for k >= 3, with large diameter: a stress case mixing dense
// and sparse regions.
func Barbell(k, pathLen int) *graph.Graph {
	if k < 1 {
		panic(fmt.Sprintf("gen: barbell needs k >= 1, got %d", k))
	}
	n := 2*k + pathLen
	b := graph.NewBuilder(n).Name(fmt.Sprintf("barbell(%d,%d)", k, pathLen))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			b.AddEdge(graph.NodeID(k+pathLen+i), graph.NodeID(k+pathLen+j))
		}
	}
	// Path from node k-1 through the bridge nodes to node k+pathLen.
	prev := graph.NodeID(k - 1)
	for i := 0; i < pathLen; i++ {
		next := graph.NodeID(k + i)
		b.AddEdge(prev, next)
		prev = next
	}
	b.AddEdge(prev, graph.NodeID(k+pathLen))
	return b.MustBuild()
}

// Lollipop returns a clique K_k with a path of pathLen nodes attached.
// Non-bipartite for k >= 3.
func Lollipop(k, pathLen int) *graph.Graph {
	if k < 1 || pathLen < 0 {
		panic(fmt.Sprintf("gen: lollipop needs k >= 1, pathLen >= 0, got %d,%d", k, pathLen))
	}
	n := k + pathLen
	b := graph.NewBuilder(n).Name(fmt.Sprintf("lollipop(%d,%d)", k, pathLen))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	prev := graph.NodeID(k - 1)
	for i := 0; i < pathLen; i++ {
		next := graph.NodeID(k + i)
		b.AddEdge(prev, next)
		prev = next
	}
	return b.MustBuild()
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (levels >= 1; 2^levels - 1 nodes). Bipartite.
func CompleteBinaryTree(levels int) *graph.Graph {
	if levels < 1 || levels > 24 {
		panic(fmt.Sprintf("gen: binary tree levels out of range: %d", levels))
	}
	n := (1 << levels) - 1
	b := graph.NewBuilder(n).Name(fmt.Sprintf("binaryTree(%d)", levels))
	for v := 1; v < n; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v-1)/2))
	}
	return b.MustBuild()
}
