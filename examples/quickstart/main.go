// Quickstart: run amnesiac flooding on the paper's three figure topologies
// through the sim façade — protocol selected by name from the registry,
// engine chosen per run, rounds streamed to an observer as they happen —
// and print the per-round traces and termination statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/theory"
	"amnesiacflood/internal/trace"
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

		// Stream rounds through an observer while also recording the
		// trace for the analysis below — the same run serves both.
		recorder := &sim.TraceRecorder{}
		sess, err := sim.New(d.g,
			sim.WithProtocol("amnesiac"),
			sim.WithEngine(d.kind),
			sim.WithOrigins(d.source),
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

		res.Trace = recorder.Trace
		rep := core.Analyze(d.g, []graph.NodeID{d.source}, res)
		bound := theory.PredictTermination(d.g, d.source)
		window := fmt.Sprintf("%d..%d", bound.Lower, bound.Upper)
		if !bound.Certified {
			window = fmt.Sprintf("%d.., upper end not certified", bound.Lower)
		}
		fmt.Printf("\nterminated in %d rounds (paper's window: %s), %d messages, max receives per node %d\n",
			rep.Rounds(), window, rep.TotalMessages(), rep.MaxReceives())
		fmt.Printf("graph: diameter %d, e(source) %d, bipartite %t; engine %s in %v\n\n",
			algo.Diameter(d.g), algo.Eccentricity(d.g, d.source), algo.IsBipartite(d.g),
			res.Engine, res.WallTime)
	}
	return nil
}
