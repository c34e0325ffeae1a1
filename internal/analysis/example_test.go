package analysis_test

import (
	"context"
	"fmt"
	"log"

	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// ExampleBipartite probes two cycles with a single flood each: the even
// cycle looks like a parallel BFS, the odd one betrays itself through
// double receipts. WithAnalysisStop(false) floods to completion, so every
// witness is reported rather than only the first.
func ExampleBipartite() {
	for _, n := range []int{6, 7} {
		sess, err := sim.New(gen.Cycle(n), sim.WithOrigins(0),
			sim.WithAnalysis("bipartite"), sim.WithAnalysisStop(false))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		witnesses, _ := sess.Witnesses()
		fmt.Printf("C%d bipartite=%t witnesses=%d\n", n, res.Metrics["bipartite.bipartite"] == 1, len(witnesses))
	}
	// Output:
	// C6 bipartite=true witnesses=0
	// C7 bipartite=false witnesses=7
}
