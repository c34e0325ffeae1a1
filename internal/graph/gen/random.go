package gen

import (
	"fmt"
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
)

// RandomGNP returns an Erdős–Rényi graph G(n, p): each of the n(n-1)/2
// possible edges is present independently with probability p. The result is
// not necessarily connected; combine with Connectify when the experiment
// needs a connected instance.
func RandomGNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n).Name(fmt.Sprintf("gnp(%d,%.3f)", n, p))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labelled tree over n nodes via a
// random Prüfer-like attachment: node i (i >= 1) attaches to a uniformly
// random earlier node. Bipartite and connected by construction.
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n).Name(fmt.Sprintf("randomTree(%d)", n))
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	return b.MustBuild()
}

// RandomBipartite returns a random bipartite graph on parts of size a and b:
// each cross edge is present with probability p, and a random perfect
// matching-style augmentation guarantees no isolated node, keeping instances
// usable for flooding experiments. Connectivity is not guaranteed; use
// Connectify if required.
func RandomBipartite(a, b int, p float64, rng *rand.Rand) *graph.Graph {
	bld := graph.NewBuilder(a + b).Name(fmt.Sprintf("randomBipartite(%d,%d,%.3f)", a, b, p))
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if rng.Float64() < p {
				bld.AddEdge(graph.NodeID(i), graph.NodeID(a+j))
			}
		}
	}
	// Ensure minimum degree 1 on both sides without breaking bipartiteness.
	for i := 0; i < a; i++ {
		bld.AddEdge(graph.NodeID(i), graph.NodeID(a+rng.Intn(b)))
	}
	for j := 0; j < b; j++ {
		bld.AddEdge(graph.NodeID(rng.Intn(a)), graph.NodeID(a+j))
	}
	return bld.MustBuild()
}

// Connectify returns g if it is already connected; otherwise it returns a
// copy with one extra edge per additional component, joining a random node
// of each later component to a random node of the first. Added edges join
// distinct components, so bipartiteness is preserved. The copy is laid out
// through graph.FromStream, which replays g's own rows plus the bridges, so
// no edge list is materialised at any size.
func Connectify(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	comps := algo.Components(g)
	if len(comps) <= 1 {
		return g, nil
	}
	bridges := make([]graph.Edge, 0, len(comps)-1)
	base := comps[0]
	for _, comp := range comps[1:] {
		bridges = append(bridges, graph.Edge{U: base[rng.Intn(len(base))], V: comp[rng.Intn(len(comp))]})
	}
	return graph.FromStream(g.Name()+"+connected", g.N(), func(add func(u, v graph.NodeID)) error {
		for u := range graph.NodeID(g.N()) {
			for _, v := range g.Neighbors(u) {
				if u < v {
					add(u, v)
				}
			}
		}
		for _, b := range bridges {
			add(b.U, b.V)
		}
		return nil
	})
}

// RandomConnected returns a connected G(n, p)-style graph: a random tree
// backbone (guaranteeing connectivity) plus each remaining edge with
// probability p. For p = 0 this is exactly a random tree.
func RandomConnected(n int, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n).Name(fmt.Sprintf("randomConnected(%d,%.3f)", n, p))
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.MustBuild()
}

// RandomNonBipartite returns a connected non-bipartite graph: a random
// connected graph with one random triangle grafted on, which forces an odd
// cycle regardless of the rest of the topology. Requires n >= 3.
func RandomNonBipartite(n int, p float64, rng *rand.Rand) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: non-bipartite graph needs n >= 3, got %d", n))
	}
	b := graph.NewBuilder(n).Name(fmt.Sprintf("randomNonBipartite(%d,%.3f)", n, p))
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	// Graft a triangle on three distinct random nodes.
	perm := rng.Perm(n)
	x, y, z := graph.NodeID(perm[0]), graph.NodeID(perm[1]), graph.NodeID(perm[2])
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	b.AddEdge(z, x)
	return b.MustBuild()
}
