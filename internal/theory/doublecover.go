package theory

import (
	"fmt"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// CheckDoubleCoverExact verifies the strongest claim the library makes
// about a single-source run: the full-paper machinery (amnesiac flooding on
// G equals classic flooding on the bipartite double cover of G) predicts the
// run exactly — same termination round, same message total, and the same
// sends in every round.
//
// This subsumes CheckBipartiteExact and the bounds of CheckGeneralBounds:
// the cover distances reduce to BFS distances on bipartite graphs and are
// bounded by 2D+1 in general.
func CheckDoubleCoverExact(g *graph.Graph, rep *core.Report) error {
	if len(rep.Origins) != 1 {
		return fmt.Errorf("theory: double-cover check needs a single origin, got %d", len(rep.Origins))
	}
	source := rep.Origins[0]
	pred := doublecover.Predict(g, source)
	if pred.Rounds != rep.Rounds() {
		return fmt.Errorf("theory: %s from %d: cover predicts termination at round %d, run took %d",
			g, source, pred.Rounds, rep.Rounds())
	}
	if pred.TotalMessages != rep.TotalMessages() {
		return fmt.Errorf("theory: %s from %d: cover predicts %d messages, run sent %d",
			g, source, pred.TotalMessages, rep.TotalMessages())
	}
	if !engine.EqualTraces(pred.Trace, rep.Result.Trace) {
		return fmt.Errorf("theory: %s from %d: predicted trace differs from simulated trace", g, source)
	}
	for v, rounds := range pred.Receipts {
		if got, want := rep.ReceiveCounts[v], len(rounds); got != want {
			return fmt.Errorf("theory: %s from %d: node %d received %d times, cover predicts %d",
				g, source, v, got, want)
		}
	}
	return nil
}

// CheckNonBipartiteExactlyTwice verifies the sharp per-node refinement the
// cover yields on connected non-bipartite graphs: every node other than the
// source receives M in exactly two rounds, and the source in exactly one
// (both parities are reachable everywhere, the source's even distance being
// 0). This sharpens the "at most twice" cap of CheckGeneralBounds.
func CheckNonBipartiteExactlyTwice(g *graph.Graph, rep *core.Report) error {
	if len(rep.Origins) != 1 {
		return fmt.Errorf("theory: exactly-twice check needs a single origin, got %d", len(rep.Origins))
	}
	source := rep.Origins[0]
	for v := 0; v < g.N(); v++ {
		want := 2
		if graph.NodeID(v) == source {
			want = 1
		}
		if got := rep.ReceiveCounts[v]; got != want {
			return fmt.Errorf("theory: non-bipartite %s from %d: node %d received %d times, want %d",
				g, source, v, got, want)
		}
	}
	return nil
}
