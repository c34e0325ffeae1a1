// Social-media rumour demo: the paper's §1 motivation describes amnesiac
// flooding as "an aggressive social media user that has a compulsion to
// forward every message but does not want to annoy those who have just sent
// it the message it's forwarding".
//
// This example builds a random social network (dense core plus tree-like
// periphery), injects a rumour at a random user, and compares the amnesiac
// forwarder with the classic remember-everything forwarder: rounds to quiet,
// total forwards, and how many users saw the rumour more than once.
//
//	go run ./examples/socialmedia [-n 300] [-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"

	// Registers the amnesiac protocol; classic registers itself above.
	_ "amnesiacflood/internal/core"
)

func main() {
	n := flag.Int("n", 300, "number of users")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()
	if err := run(*n, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	network := socialNetwork(n, rng)
	patientZero := graph.NodeID(rng.Intn(network.N()))
	fmt.Printf("network: %s (diameter %d, bipartite %t)\n",
		network, algo.Diameter(network), algo.IsBipartite(network))
	fmt.Printf("rumour starts at user %d (eccentricity %d)\n\n",
		patientZero, algo.Eccentricity(network, patientZero))

	// Both forwarders run through the sim façade: same graph, same patient
	// zero, protocol selected by registry name, receipts counted by the
	// coverage analysis.
	runProtocol := func(name string) (engine.Result, *sim.Session, error) {
		sess, err := sim.New(network,
			sim.WithProtocol(name),
			sim.WithEngine(sim.Fast),
			sim.WithOrigins(patientZero),
			sim.WithAnalysis("coverage"),
		)
		if err != nil {
			return engine.Result{}, nil, err
		}
		res, err := sess.Run(context.Background())
		return res, sess, err
	}

	amnesiac, sess, err := runProtocol("amnesiac")
	if err != nil {
		return err
	}
	cov, _ := sess.Coverage()
	multi := 0
	for _, c := range cov.ReceiveCounts() {
		if c >= 2 {
			multi++
		}
	}
	fmt.Println("amnesiac forwarder (no per-user memory):")
	fmt.Printf("  quiet after %d rounds, %d forwards, %d/%d users saw the rumour twice\n\n",
		amnesiac.Rounds, amnesiac.TotalMessages, multi, network.N())

	classicRes, _, err := runProtocol("classic")
	if err != nil {
		return err
	}
	fmt.Println("classic forwarder (every user remembers the rumour):")
	fmt.Printf("  quiet after %d rounds, %d forwards, %d persistent bit(s) per user\n\n",
		classicRes.Rounds, classicRes.TotalMessages, classic.PersistentBitsPerNode())

	ratio := float64(amnesiac.TotalMessages) / float64(classicRes.TotalMessages)
	fmt.Printf("price of amnesia on this network: %.2fx the forwards, %+d rounds\n",
		ratio, amnesiac.Rounds-classicRes.Rounds)
	fmt.Println("(the paper proves the amnesiac process always goes quiet: Theorem 3.1)")
	return nil
}

// socialNetwork builds a preferential-attachment contact graph: heavy-
// tailed degrees (a few hub users with many contacts), connected, like the
// social networks of the paper's reference [3].
func socialNetwork(n int, rng *rand.Rand) *graph.Graph {
	return gen.PreferentialAttachment(n, 3, rng)
}
