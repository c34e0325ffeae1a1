// Package theory turns the paper's lemmas and theorems into executable
// checks. A check reads the engine result of an amnesiac-flooding run and
// the run's coverage analyzer (internal/analysis: per-node receive counts
// and first/last receive rounds, streamed live by a sim session with the
// "coverage" analysis attached), and returns nil when the run is consistent
// with the paper's claims, or a descriptive error pinpointing the violated
// claim. Only CheckDoubleCoverExact reads the result's trace.
//
// The checks are used three ways: as unit/property-test oracles, as the
// acceptance criteria of the experiment harness (EXPERIMENTS.md), and as a
// library facility for users who want their own runs validated.
package theory

import (
	"fmt"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
)

// CheckTerminated verifies Theorem 3.1's conclusion on a concrete run:
// the flood reached a round with no messages.
func CheckTerminated(res engine.Result) error {
	if !res.Terminated {
		return fmt.Errorf("theory: run did not terminate within %d rounds (Theorem 3.1 violated)", res.Rounds)
	}
	return nil
}

// CheckBipartiteExact verifies Lemma 2.1 on a single-source run over a
// connected bipartite graph:
//
//   - the flood terminates in exactly e(source) rounds,
//   - every node receives M exactly once, in the round equal to its
//     BFS distance from the source (the parallel-BFS behaviour).
//
// Corollary 2.2, termination within the diameter D, follows from the first
// point, since e(source) <= D.
func CheckBipartiteExact(g *graph.Graph, res engine.Result, cov *analysis.Coverage) error {
	if err := CheckTerminated(res); err != nil {
		return err
	}
	if len(cov.Origins()) != 1 {
		return fmt.Errorf("theory: bipartite check needs a single origin, got %d", len(cov.Origins()))
	}
	source := cov.Origins()[0]
	ecc := algo.Eccentricity(g, source)
	if res.Rounds != ecc {
		return fmt.Errorf("theory: bipartite %s from %d: terminated in %d rounds, want eccentricity %d (Lemma 2.1)",
			g, source, res.Rounds, ecc)
	}
	dist := algo.BFS(g, source)
	counts, first := cov.ReceiveCounts(), cov.FirstReceive()
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		if node == source {
			if counts[v] != 0 {
				// On a bipartite graph the origin never hears the
				// message back.
				return fmt.Errorf("theory: bipartite %s: origin %d received M %d times, want 0",
					g, source, counts[v])
			}
			continue
		}
		if counts[v] != 1 {
			return fmt.Errorf("theory: bipartite %s from %d: node %d received M %d times, want exactly once (Lemma 2.1)",
				g, source, node, counts[v])
		}
		if first[v] != dist[v] {
			return fmt.Errorf("theory: bipartite %s from %d: node %d first received in round %d, want BFS distance %d",
				g, source, node, first[v], dist[v])
		}
	}
	return nil
}

// CheckGeneralBounds verifies the general-graph claims on a single-source
// run over a connected graph:
//
//   - termination (Theorem 3.1),
//   - every non-origin node is covered,
//   - e(source) <= rounds <= 2D+1 (Theorem 3.3 upper bound; the lower
//     bound holds because the flood needs e(source) rounds to reach the
//     farthest node),
//   - no node receives M in more than two distinct rounds (full-paper
//     refinement of Theorem 3.3).
func CheckGeneralBounds(g *graph.Graph, res engine.Result, cov *analysis.Coverage) error {
	if err := CheckTerminated(res); err != nil {
		return err
	}
	if len(cov.Origins()) != 1 {
		return fmt.Errorf("theory: general check needs a single origin, got %d", len(cov.Origins()))
	}
	source := cov.Origins()[0]
	if cov.Uncovered() > 0 {
		return fmt.Errorf("theory: %s from %d: some node never received M on a connected graph", g, source)
	}
	ecc := algo.Eccentricity(g, source)
	diam := algo.Diameter(g)
	if res.Rounds < ecc {
		return fmt.Errorf("theory: %s from %d: %d rounds < eccentricity %d (message cannot have covered the graph)",
			g, source, res.Rounds, ecc)
	}
	if res.Rounds > 2*diam+1 {
		return fmt.Errorf("theory: %s from %d: %d rounds > 2D+1 = %d (Theorem 3.3)",
			g, source, res.Rounds, 2*diam+1)
	}
	if most := cov.MaxReceives(); most > 2 {
		return fmt.Errorf("theory: %s from %d: a node received M in %d distinct rounds, want <= 2",
			g, source, most)
	}
	return nil
}

// CheckNonBipartiteStrict verifies the paper's remark that on connected
// non-bipartite graphs termination is strictly slower than the diameter:
// rounds > D.
//
// Reproduction caveat (experiment E5): the remark holds on source-symmetric
// families (odd cycles, cliques, wheels, Petersen) but is not true for every
// (graph, source) pair — on irregular non-bipartite graphs the odd-cycle
// echo can die out before the primary wave reaches the last node, giving
// rounds == e(source) <= D. Apply this check only where the strict bound is
// expected; use CheckGeneralBounds otherwise.
func CheckNonBipartiteStrict(g *graph.Graph, res engine.Result, cov *analysis.Coverage) error {
	if err := CheckGeneralBounds(g, res, cov); err != nil {
		return err
	}
	if diam := algo.Diameter(g); res.Rounds <= diam {
		return fmt.Errorf("theory: non-bipartite %s from %v: %d rounds <= diameter %d, want strictly more",
			g, cov.Origins(), res.Rounds, diam)
	}
	return nil
}

// CheckOddGapInvariant verifies the combinatorial heart of the Theorem 3.1
// proof (Lemma 3.2 and the two contradiction cases of Figure 4): in any
// execution, whenever a node belongs to two round-sets R_i and R_j
// (with R_0 = the origin set), the duration j-i is odd. An even duration
// would make the set Re of the proof non-empty, which the paper shows is
// impossible. A node in three round-sets fails too (see eachRoundSets).
func CheckOddGapInvariant(cov *analysis.Coverage) error {
	return eachRoundSets(cov, func(v graph.NodeID, rounds []int) error {
		if len(rounds) == 2 && (rounds[1]-rounds[0])%2 == 0 {
			return fmt.Errorf("theory: node %d is in round-sets R_%d and R_%d: even duration %d (Lemma 3.2 machinery violated)",
				v, rounds[0], rounds[1], rounds[1]-rounds[0])
		}
		return nil
	})
}

// Bound is the predicted termination of a single-source run, derived
// purely from the graph (no simulation): the exact round of the
// double-cover law and the paper's window around it.
type Bound struct {
	// Exact is set when the paper predicts the exact round count (a
	// bipartite component: e(source)); when true, Lower == Upper.
	Exact bool
	// Lower and Upper bracket the termination round, inclusive. On a
	// non-bipartite component Upper is 2*max(LB, e(source))+1 for the
	// two-sweep lower bound LB <= D, so Upper <= 2D+1. Upper is 0 when it
	// does not certify Rounds.
	Lower, Upper int
	// Rounds is the exact termination round by the double-cover law.
	Rounds int
	// Certified is set when the window's upper end is known: always on a
	// bipartite component, otherwise when Rounds <= Upper, which proves
	// Rounds <= 2D+1 without computing D (doublecover.Window). When
	// two-sweep undershoots D it may not be.
	Certified bool
}

// PredictTermination returns the termination of a single-source flood:
// the exact round from one parity BFS (internal/doublecover) and the
// paper's window, exactly e(source) when the source's component is
// bipartite and otherwise e(source) .. 2*max(LB, e(source))+1 with the
// two-sweep bound LB (algo.DiameterLowerBound), which stands in for 2D+1.
// It costs O(n+m). (The brief announcement's "strictly larger than D" is
// not a pointwise lower bound — see CheckNonBipartiteStrict — so the
// general window starts at e(source).)
func PredictTermination(g *graph.Graph, source graph.NodeID) Bound {
	var cover doublecover.Arena
	cover.Run(g, source)
	b := Bound{Exact: cover.Bipartite(), Lower: cover.Eccentricity(), Rounds: cover.Rounds()}
	lb := 0
	if !b.Exact {
		lb = algo.DiameterLowerBound(g)
	}
	b.Upper, b.Certified = doublecover.Window(b.Rounds, b.Lower, lb, b.Exact)
	return b
}

// Holds reports whether a measured round count is the predicted one and
// lies in the paper's window: at least Lower and, when the window is
// certified, at most Upper. On a bipartite component that is exactly
// e(source).
func (b Bound) Holds(rounds int) bool {
	return rounds == b.Rounds && rounds >= b.Lower && (!b.Certified || rounds <= b.Upper)
}
