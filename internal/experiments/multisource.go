package experiments

import (
	"fmt"
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

// MultiSource is experiment E13, the natural generalisation the full paper
// studies: all of a set S of origins start the flood in round 1.
//
// Findings: the double-cover law predicts every origin-set run exactly, as
// it does single-origin runs (with the odd-gap invariant of the Theorem 3.1
// machinery intact); on bipartite graphs the flood is a multi-source
// parallel BFS — exactly once per node, ending at the multi-BFS depth
// e(S) — when all origins lie in the same colour class, while origins in
// different classes create parity conflicts that behave like odd cycles
// (double receipts), even though the graph has none.
func MultiSource(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	t := &Table{
		ID:    "E13",
		Title: "Multi-source amnesiac flooding",
		Columns: []string{
			"graph", "origins", "same colour class", "rounds",
			"multi-BFS depth", "max receives", "terminated",
		},
	}
	type testCase struct {
		g       *graph.Graph
		origins []graph.NodeID
	}
	cases := []testCase{
		// Bipartite, same colour class (even pairwise distances).
		{gen.Path(9), []graph.NodeID{0, 8}},
		{gen.Path(9), []graph.NodeID{0, 4, 8}},
		{gen.Cycle(12), []graph.NodeID{0, 6}},
		{gen.Grid(5, 5), []graph.NodeID{0, 24}},
		// Bipartite, mixed colour classes (some odd pairwise distance).
		{gen.Path(9), []graph.NodeID{0, 5}},
		{gen.Cycle(12), []graph.NodeID{0, 3}},
		{gen.Grid(5, 5), []graph.NodeID{0, 1}},
		// Non-bipartite.
		{gen.Cycle(9), []graph.NodeID{0, 3}},
		{gen.Complete(10), []graph.NodeID{0, 1, 2}},
		{gen.Petersen(), []graph.NodeID{0, 7}},
	}
	// Random instances with random origin sets.
	for i := 0; i < cfg.scaled(6); i++ {
		g := gen.RandomConnected(40+rng.Intn(80), 0.04, rng)
		k := 2 + rng.Intn(3)
		origins := make([]graph.NodeID, 0, k)
		for j := 0; j < k; j++ {
			origins = append(origins, graph.NodeID(rng.Intn(g.N())))
		}
		cases = append(cases, testCase{g, origins})
	}

	for _, tc := range cases {
		res, cov, err := flood(cfg, tc.g, false, tc.origins...)
		if err != nil {
			return nil, fmt.Errorf("E13: %s from %v: %w", tc.g, tc.origins, err)
		}
		if cov.Uncovered() > 0 {
			return nil, fmt.Errorf("E13: %s from %v: coverage gap", tc.g, tc.origins)
		}
		if err := theory.CheckOddGapInvariant(cov); err != nil {
			return nil, fmt.Errorf("E13: %w", err)
		}
		// The law and its window: exactly the multi-BFS depth e(S), with
		// single receipts, when no node is reached in both parities (on a
		// connected graph: bipartite, origins in one colour class).
		if err := theory.CheckLaw(res); err != nil {
			return nil, fmt.Errorf("E13: %s from %v: %w", tc.g, tc.origins, err)
		}
		t.AddRow(tc.g.Name(), fmt.Sprint(cov.Origins()), res.Metrics["termination.boundExact"] == 1, res.Rounds,
			res.Metrics["termination.eccentricity"], cov.MaxReceives(), res.Terminated)
	}
	t.AddNote("every origin set terminated, covered the graph, and respected the odd-gap invariant")
	t.AddNote("same-colour-class origins on bipartite graphs give a clean multi-source BFS; mixed classes create parity conflicts and double receipts without any odd cycle")
	return []*Table{t}, nil
}
