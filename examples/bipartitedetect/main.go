// Topology detection demo (paper §1.1): decide whether a network is
// bipartite by watching a single amnesiac flood — no global knowledge, no
// two-colouring pass. On a bipartite graph the flood dies after exactly
// e(source) rounds and nobody hears the message twice; any odd cycle makes
// some node hear it twice and the flood outlive e(source).
//
// The demo attaches the streaming "bipartite" analysis to the flood through
// the sim façade; it stops the run at the first odd-cycle witness, so
// non-bipartite verdicts arrive without flooding to completion.
//
//	go run ./examples/bipartitedetect [-seed 7]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"

	// Registers the amnesiac protocol the sessions run.
	_ "amnesiacflood/internal/core"
)

func main() {
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()
	if err := run(*seed); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	probes := []struct {
		label string
		g     *graph.Graph
	}{
		{"even cycle C10", gen.Cycle(10)},
		{"odd cycle C11", gen.Cycle(11)},
		{"4x5 grid", gen.Grid(4, 5)},
		{"Petersen graph", gen.Petersen()},
		{"random tree", gen.RandomTree(50, rng)},
		{"random graph A", gen.RandomConnected(60, 0.04, rng)},
		{"random graph B", gen.RandomConnected(60, 0.04, rng)},
		{"hypercube Q5", gen.Hypercube(5)},
	}
	fmt.Println("probing networks with a single amnesiac flood each (stopped at the first witness):")
	fmt.Println()
	ctx := context.Background()
	for _, p := range probes {
		source := graph.NodeID(rng.Intn(p.g.N()))
		sess, err := sim.New(p.g,
			sim.WithEngine(sim.Fast),
			sim.WithOrigins(source),
			sim.WithAnalysis("bipartite"),
		)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		res, err := sess.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		bipartite := res.Metrics["bipartite.bipartite"] == 1
		truth := algo.IsBipartite(p.g)
		status := "agrees with ground truth"
		if bipartite != truth {
			status = "DISAGREES with ground truth"
		}
		saved := ""
		if !bipartite {
			saved = fmt.Sprintf(" (stopped at round %d of a >%d-round flood)", res.Rounds, int(res.Metrics["bipartite.eccentricity"]))
		}
		fmt.Printf("%-16s bipartite=%t%s\n", p.label+":", bipartite, saved)
		fmt.Printf("%-16s two-colouring says bipartite=%t — flood verdict %s\n\n", "", truth, status)
	}
	return nil
}
