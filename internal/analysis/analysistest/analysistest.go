// Package analysistest preserves the post-hoc walks that the streaming
// "coverage", "bipartite" and "spantree" analyses replaced, as frozen
// reference implementations. They read the report of a finished
// single-source run, its engine.Result recorded with tracing on, and walk
// the trace instead of observing rounds, so the differential tests in
// internal/analysis compare the streaming analyses against an independent
// implementation:
//
//   - ReceiptsFromTrace counts each node's distinct receive rounds and
//     their first and last;
//   - DetectFromReport derives the bipartiteness verdict from those
//     receipts and cross-checks it against the late-termination signal;
//   - ProbeStopRound is the round an early-stopping odd-cycle probe ends
//     at;
//   - SpanTreeFromReport reads the BFS spanning tree off the trace.
//
// Nothing but tests may import this package (a CI step and `make vet`
// enforce it), and it must stay behaviourally frozen.
package analysistest

import (
	"fmt"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
)

// ReceiptsFromTrace walks res's trace over an n-node graph, one round's
// distinct receivers at a time, and returns per node how many distinct
// rounds it received M in and the first and last of them (0 = never).
func ReceiptsFromTrace(n int, res engine.Result) (counts, first, last []int) {
	counts, first, last = make([]int, n), make([]int, n), make([]int, n)
	for _, rec := range res.Trace {
		for _, v := range rec.Receivers() {
			counts[v]++
			if first[v] == 0 {
				first[v] = rec.Round
			}
			last[v] = rec.Round
		}
	}
	return counts, first, last
}

// Verdict is the outcome of a flooding-based bipartiteness probe.
type Verdict struct {
	// Bipartite is the verdict: true iff no odd cycle was witnessed.
	Bipartite bool
	// Source is the probe's origin node.
	Source graph.NodeID
	// Rounds is how long the probe flood ran.
	Rounds int
	// Eccentricity is e(source), the expected round count for a bipartite
	// graph.
	Eccentricity int
	// DoubleReceivers lists the nodes that received M in two distinct
	// rounds — each is a witness of an odd cycle. Empty for bipartite
	// graphs.
	DoubleReceivers []graph.NodeID
}

// DetectFromReport derives the verdict of a full traced flood from source.
// The two witness signals (double receipt, late termination) are computed
// independently and cross-checked; a disagreement would indicate a
// simulator bug and is returned as an error.
func DetectFromReport(g *graph.Graph, source graph.NodeID, res engine.Result) (Verdict, error) {
	v := Verdict{
		Source:       source,
		Rounds:       res.Rounds,
		Eccentricity: algo.Eccentricity(g, source),
	}
	counts, _, _ := ReceiptsFromTrace(g.N(), res)
	for node, count := range counts {
		if count >= 2 {
			v.DoubleReceivers = append(v.DoubleReceivers, graph.NodeID(node))
		}
	}
	// The origin hearing M back is also an odd-cycle witness: on a
	// bipartite graph every round's messages travel strictly away from
	// the source.
	if counts[source] >= 1 {
		v.DoubleReceivers = appendUnique(v.DoubleReceivers, source)
	}
	byReceipts := len(v.DoubleReceivers) > 0
	byRounds := v.Rounds > v.Eccentricity
	if byReceipts != byRounds {
		return Verdict{}, fmt.Errorf(
			"analysistest: witness signals disagree on %s from %d: doubleReceipts=%t lateRounds=%t (rounds=%d, e=%d)",
			g, source, byReceipts, byRounds, v.Rounds, v.Eccentricity)
	}
	v.Bipartite = !byReceipts
	return v, nil
}

func appendUnique(list []graph.NodeID, v graph.NodeID) []graph.NodeID {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}

// ProbeStopRound returns the round at which an odd-cycle probe watching the
// traced flood from source would stop: the first round in which some node
// hears M in a second distinct round, or the source hears it at all. It
// returns 0 when no such round exists, i.e. on bipartite graphs (Lemma
// 2.1).
func ProbeStopRound(source graph.NodeID, res engine.Result) int {
	heard := map[graph.NodeID]bool{}
	for _, rec := range res.Trace {
		for _, v := range rec.Receivers() {
			if v == source || heard[v] {
				return rec.Round
			}
			heard[v] = true
		}
	}
	return 0
}

// SpanTreeFromReport extracts the tree from a traced single-source run
// from root: the parent of node v is the smallest-ID neighbour that
// delivered M to v in v's first receipt round.
func SpanTreeFromReport(g *graph.Graph, root graph.NodeID, res engine.Result) *analysis.Tree {
	tree := &analysis.Tree{
		Root:   root,
		Parent: make([]graph.NodeID, g.N()),
		Depth:  make([]int, g.N()),
	}
	for v := range tree.Parent {
		tree.Parent[v] = graph.NodeID(v)
		tree.Depth[v] = -1
	}
	tree.Depth[root] = 0
	_, first, _ := ReceiptsFromTrace(g.N(), res)

	for _, rec := range res.Trace {
		for _, s := range rec.Sends {
			v := s.To
			if tree.Depth[v] != -1 {
				continue // already adopted in an earlier round
			}
			if rec.Round != first[v] {
				continue
			}
			// Sends are sorted by (From, To), so the first matching
			// sender is the smallest-ID one.
			tree.Parent[v] = s.From
			tree.Depth[v] = rec.Round
		}
	}
	return tree
}
