// Quickstart: run amnesiac flooding on the paper's three figure topologies
// through the sim façade — protocol selected by name from the registry,
// engine chosen per run, rounds streamed to an observer as they happen —
// and print the per-round traces and termination statistics, the paper's
// window among them from the session's termination analysis.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"

	// Registers the amnesiac protocol, the one entry of the printed
	// protocol list.
	_ "amnesiacflood/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	demos := []struct {
		title  string
		g      *graph.Graph
		source graph.NodeID
		kind   sim.EngineKind
	}{
		{"Figure 1 — line a-b-c-d from b (bipartite)", gen.Path(4), 1, sim.Sequential},
		{"Figure 2 — triangle from b (non-bipartite)", gen.Cycle(3), 1, sim.Channels},
		{"Figure 3 — even cycle C6 from a (bipartite)", gen.Cycle(6), 0, sim.Fast},
	}
	fmt.Printf("registered protocols: %v\n\n", sim.Protocols())
	for _, d := range demos {
		fmt.Printf("## %s (engine: %s)\n\n", d.title, d.kind)

		// Stream rounds through an observer and the coverage analysis
		// while also recording the trace — the same run serves all three.
		recorder := &sim.TraceRecorder{}
		sess, err := sim.New(d.g,
			sim.WithProtocol("amnesiac"),
			sim.WithEngine(d.kind),
			sim.WithOrigins(d.source),
			sim.WithAnalysis("coverage", "termination"),
			sim.WithObserver(sim.MultiObserver{
				recorder,
				engine.ObserverFunc(func(rec engine.RoundRecord) (bool, error) {
					fmt.Printf("  [live] round %d: %d messages in flight\n", rec.Round, len(rec.Sends))
					return false, nil
				}),
			}),
		)
		if err != nil {
			return err
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			return err
		}
		fmt.Println()
		if err := trace.RenderRounds(os.Stdout, recorder.Trace, trace.Letters); err != nil {
			return err
		}

		// The termination analysis reports the paper's window; its upper
		// end is absent where a two-sweep bound cannot certify it.
		cov, _ := sess.Coverage()
		m := res.Metrics
		window := fmt.Sprintf("%g..%g", m["termination.boundLower"], m["termination.boundUpper"])
		if _, certified := m["termination.boundUpper"]; !certified {
			window = fmt.Sprintf("%g.., upper end not certified", m["termination.boundLower"])
		}
		fmt.Printf("\nterminated in %d rounds (paper's window: %s), %d messages, max receives per node %d\n",
			res.Rounds, window, res.TotalMessages, cov.MaxReceives())
		fmt.Printf("graph: diameter %d, e(source) %d, bipartite %t; engine %s in %v\n\n",
			algo.Diameter(d.g), algo.Eccentricity(d.g, d.source), algo.IsBipartite(d.g),
			res.Engine, res.WallTime)
	}
	return nil
}
