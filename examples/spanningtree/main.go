// Spanning-tree demo: the paper opens by quoting Aspnes — flooding "gives
// you both a broadcast mechanism and a way to build rooted spanning trees".
// This example shows the amnesiac variant keeps that byproduct: reading
// each node's first sender off the flood yields a BFS tree rooted at the
// origin, even though the protocol itself remembers nothing. The tree comes
// from the streaming "spantree" analysis, which stops the flood once the
// tree spans the graph.
//
//	go run ./examples/spanningtree [-seed 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"

	// Registers the amnesiac protocol the sessions run.
	_ "amnesiacflood/internal/core"
)

func main() {
	seed := flag.Int64("seed", 5, "random seed")
	flag.Parse()
	if err := run(*seed); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))

	// Small graph: print the whole tree.
	g := gen.Petersen()
	tree, err := spanTree(g, 0)
	if err != nil {
		return err
	}
	fmt.Printf("flood-derived spanning tree of the %s rooted at %s:\n\n", g, trace.Letters(tree.Root))
	byDepth := map[int][]graph.NodeID{}
	maxDepth := 0
	for v := 0; v < g.N(); v++ {
		d := tree.Depth[v]
		byDepth[d] = append(byDepth[d], graph.NodeID(v))
		if d > maxDepth {
			maxDepth = d
		}
	}
	for d := 0; d <= maxDepth; d++ {
		var labels []string
		for _, v := range byDepth[d] {
			if v == tree.Root {
				labels = append(labels, trace.Letters(v)+" (root)")
			} else {
				labels = append(labels, fmt.Sprintf("%s<-%s", trace.Letters(v), trace.Letters(tree.Parent[v])))
			}
		}
		fmt.Printf("depth %d: %s\n", d, strings.Join(labels, "  "))
	}
	if err := tree.Validate(g); err != nil {
		return err
	}
	fmt.Println("\ntree validated: every edge joins consecutive BFS layers (child<-parent shown above)")

	// Larger random graph: just the invariants.
	big := gen.RandomConnected(500, 0.01, rng)
	root := graph.NodeID(rng.Intn(big.N()))
	bigTree, err := spanTree(big, root)
	if err != nil {
		return err
	}
	if err := bigTree.Validate(big); err != nil {
		return err
	}
	dist := algo.BFS(big, root)
	agree := true
	for v := range dist {
		if bigTree.Depth[v] != dist[v] {
			agree = false
			break
		}
	}
	fmt.Printf("\n%s rooted at %d: %d tree edges, depths match BFS distances: %t\n",
		big, root, len(bigTree.Edges()), agree)
	deepest := 0
	for v := range dist {
		if dist[v] > dist[deepest] {
			deepest = v
		}
	}
	fmt.Printf("longest root path (%d hops): %v\n", bigTree.Depth[deepest], bigTree.PathToRoot(graph.NodeID(deepest)))
	return nil
}

// spanTree floods g from root with the spantree analysis attached and
// returns the tree it read off the flood.
func spanTree(g *graph.Graph, root graph.NodeID) (*analysis.Tree, error) {
	sess, err := sim.New(g, sim.WithOrigins(root), sim.WithAnalysis("spantree"))
	if err != nil {
		return nil, err
	}
	if _, err := sess.Run(context.Background()); err != nil {
		return nil, err
	}
	tree, _ := sess.SpanTree()
	return tree, nil
}
