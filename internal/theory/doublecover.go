package theory

import (
	"fmt"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// CheckDoubleCoverExact verifies the strongest claim the library makes
// about a run from one origin or from an origin set: the full-paper
// machinery (amnesiac flooding on G equals classic flooding on the
// bipartite double cover of G) predicts the run exactly — same termination
// round, same message total, the same sends in every round, and every
// node's receive count. It compares sends, so res must carry its trace;
// the termination analysis checks the same law on untraced runs.
func CheckDoubleCoverExact(g *graph.Graph, res engine.Result, cov *analysis.Coverage) error {
	origins := cov.Origins()
	pred := doublecover.Predict(g, origins...)
	if pred.Rounds != res.Rounds {
		return fmt.Errorf("theory: %s from %v: cover predicts termination at round %d, run took %d",
			g, origins, pred.Rounds, res.Rounds)
	}
	if pred.TotalMessages != res.TotalMessages {
		return fmt.Errorf("theory: %s from %v: cover predicts %d messages, run sent %d",
			g, origins, pred.TotalMessages, res.TotalMessages)
	}
	if !engine.EqualTraces(pred.Trace, res.Trace) {
		return fmt.Errorf("theory: %s from %v: predicted trace differs from simulated trace", g, origins)
	}
	counts := cov.ReceiveCounts()
	for v, rounds := range pred.Receipts {
		if got, want := counts[v], len(rounds); got != want {
			return fmt.Errorf("theory: %s from %v: node %d received %d times, cover predicts %d",
				g, origins, v, got, want)
		}
	}
	return nil
}
