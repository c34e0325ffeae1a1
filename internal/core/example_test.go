package core_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"
)

// Example reproduces the paper's Figure 2: amnesiac flooding on the
// triangle from node b terminates in 3 = 2D+1 rounds.
func Example() {
	g := gen.Cycle(3)
	flood := core.MustNewFlood(g, 1) // b is node 1
	res, err := engine.Run(context.Background(), g, flood, engine.Options{Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.RenderRounds(os.Stdout, res.Trace, trace.Letters); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("terminated in %d rounds\n", res.Rounds)
	// Output:
	// round 1: sending {b}  edges b->a b->c
	// round 2: sending {a,c}  edges a->c c->a
	// round 3: sending {a,c}  edges a->b c->b
	// terminated in 3 rounds
}

// ExampleNewFlood_bipartite shows Lemma 2.1: on a bipartite graph the flood
// is a parallel BFS ending after exactly e(source) rounds. The session's
// coverage analysis streams the receive counts.
func ExampleNewFlood_bipartite() {
	sess, err := sim.New(gen.Cycle(6), sim.WithProtocol("amnesiac"), sim.WithOrigins(0), sim.WithAnalysis("coverage"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	cov, _ := sess.Coverage()
	fmt.Printf("rounds=%d maxReceives=%d covered=%t\n",
		res.Rounds, cov.MaxReceives(), cov.Uncovered() == 0)
	// Output:
	// rounds=3 maxReceives=1 covered=true
}

// ExampleNewFlood_multiSource floods from two origins at once; all origins
// send in round 1 and the process still terminates.
func ExampleNewFlood_multiSource() {
	sess, err := sim.New(gen.Path(9), sim.WithProtocol("amnesiac"), sim.WithOrigins(0, 8), sim.WithAnalysis("coverage"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds=%d covered=%t\n", res.Rounds, res.Metrics["coverage.covered"] == 1)
	// Output:
	// rounds=4 covered=true
}
