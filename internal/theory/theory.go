// Package theory turns the paper's lemmas and theorems into executable
// checks on a run. The termination law itself, for one origin or for an
// origin set, has one statement, doublecover.Arena, and one place that
// checks a run against it, the "termination" analysis
// (internal/analysis); CheckLaw reads that analysis's verdict off the
// run's metrics. The remaining checks read the run's coverage analyzer
// (per-node receive counts and first/last receive rounds, streamed live by
// a sim session with the "coverage" analysis attached): the odd-gap
// invariant and the sequence machinery of the Theorem 3.1 proof. Only
// CheckDoubleCoverExact reads the result's trace. Each returns nil when
// the run is consistent with the paper's claims, or a descriptive error
// pinpointing the violated claim.
//
// The checks are used three ways: as unit/property-test oracles, as the
// acceptance criteria of the experiment harness (internal/experiments),
// and as a library facility for users who want their own runs validated.
package theory

import (
	"fmt"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// CheckTerminated verifies Theorem 3.1's conclusion on a concrete run:
// the flood reached a round with no messages.
func CheckTerminated(res engine.Result) error {
	if !res.Terminated {
		return fmt.Errorf("theory: run did not terminate within %d rounds (Theorem 3.1 violated)", res.Rounds)
	}
	return nil
}

// CheckLaw reads the termination analysis's verdict on an amnesiac run
// under the synchronous model, from one origin or from several: the run
// terminated (Theorem 3.1), the double-cover law predicted its round and
// every node's receipt rounds (termination.exactOK), and, where the
// window's upper end is certified, the run lies in the paper's window
// e(S)..2D+1, exactly e(S) when no node is reached in both parities
// (termination.withinBounds; Lemma 2.1, Theorem 3.3). The run must have
// had the "termination" analysis attached: missing metrics are an error.
func CheckLaw(res engine.Result) error {
	if err := CheckTerminated(res); err != nil {
		return err
	}
	m := res.Metrics
	exact, ok := m["termination.exactOK"]
	if !ok {
		return fmt.Errorf("theory: run has no termination.exactOK metric (attach the termination analysis to an amnesiac sync run)")
	}
	if exact != 1 {
		return fmt.Errorf("theory: a run of %d rounds breaks the double-cover law (predicted %g rounds; rounds or receipts differ)",
			res.Rounds, m["termination.exactRounds"])
	}
	if within, ok := m["termination.withinBounds"]; ok && within != 1 {
		return fmt.Errorf("theory: %d rounds outside the paper's window %g..%g (Lemma 2.1, Theorem 3.3)",
			res.Rounds, m["termination.boundLower"], m["termination.boundUpper"])
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
