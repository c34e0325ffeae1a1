// Termination-detection demo: the paper's introduction notes that classic
// flooding needs a flag per node "and other mechanisms to detect
// termination". This example makes the comparison concrete on one network:
//
//   - amnesiac flooding: terminates by itself (Theorem 3.1), zero
//     persistent bits, zero extra messages — but silently: nobody knows.
//
//   - classic flooding + Dijkstra-Scholten acks: the origin learns a
//     definite "flood over" — for exactly 2x the messages, per-node
//     parent/deficit state, and the drain-back delay.
//
//     go run ./examples/termination [-seed 11]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/termdetect"
)

func main() {
	seed := flag.Int64("seed", 11, "random seed")
	flag.Parse()
	if err := run(*seed); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	g := gen.PreferentialAttachment(250, 2, rng)
	source := graph.NodeID(rng.Intn(g.N()))
	fmt.Printf("network: %s, flood from node %d\n\n", g, source)

	amnesiac, err := engine.Run(context.Background(), g, core.MustNewFlood(g, source), engine.Options{})
	if err != nil {
		return err
	}
	fmt.Println("amnesiac flooding:")
	fmt.Printf("  quiet after round %d; %d messages; persistent state: none\n",
		amnesiac.Rounds, amnesiac.TotalMessages)
	fmt.Println("  termination knowledge: none — the network just falls silent")
	fmt.Println()

	detected, err := termdetect.Run(g, source)
	if err != nil {
		return err
	}
	fmt.Println("classic flooding + Dijkstra-Scholten detection:")
	fmt.Printf("  flood quiet after round %d; origin DETECTS termination at round %d\n",
		detected.FloodRounds, detected.DetectionRound)
	fmt.Printf("  %d flood messages + %d acknowledgements = %d total (%.2fx the amnesiac run)\n",
		detected.FloodMessages, detected.AckMessages, detected.TotalMessages(),
		float64(detected.TotalMessages())/float64(amnesiac.TotalMessages))
	fmt.Println("  persistent state: seen flag + parent pointer + deficit counter per node")
	fmt.Println()
	fmt.Println("the paper's trade: amnesiac flooding gives up the 'done' signal to run with no memory at all")
	return nil
}
