package doublecover_test

import (
	"fmt"

	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/graph/gen"
)

// ExamplePredict forecasts the Figure 2 triangle run without simulating:
// termination round, message count, and the receipt schedule all come from
// one BFS pass over the bipartite double cover.
func ExamplePredict() {
	g := gen.Cycle(3)
	pred := doublecover.Predict(g, 1) // flood from b
	fmt.Printf("rounds=%d messages=%d\n", pred.Rounds, pred.TotalMessages)
	fmt.Printf("receipts of a: %v\n", pred.Receipts[0])
	fmt.Printf("receipts of b: %v\n", pred.Receipts[1])
	// Output:
	// rounds=3 messages=6
	// receipts of a: [1 2]
	// receipts of b: [3]
}

// ExampleArena shows the parity distances behind the prediction: on an odd
// cycle both parities are reachable everywhere, which is why every node
// hears the message twice.
func ExampleArena() {
	var a doublecover.Arena
	a.Run(gen.Cycle(5), 0)
	fmt.Printf("node 2: even-walk %d, odd-walk %d\n",
		a.Dist(2, doublecover.Even), a.Dist(2, doublecover.Odd))
	fmt.Printf("termination round: %d\n", a.Rounds())
	// Output:
	// node 2: even-walk 2, odd-walk 3
	// termination round: 5
}
