package experiments

import (
	"fmt"
	"math/rand"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// FaultInjection is experiment E12, making the paper's robustness open
// question executable: does amnesiac-flooding termination survive message
// loss and crashes? Faults are schedules of the dynamic model: a lost copy
// is an edge down for one round (schedule:outage), random loss is
// schedule:loss, and a crash takes every edge at a node down for good
// (schedule:crash), so every run goes through the sim façade's model axis
// and the table's model column is the exact spec.
//
// Findings: (a) a SINGLE lost message on a cycle already breaks
// termination — the surviving wavefront has nothing to cancel against and
// laps the cycle forever (certified by configuration repetition); (b) on
// trees loss only shrinks the flood — termination holds but coverage
// fails; (c) sustained random loss on cyclic graphs typically keeps the
// flood alive indefinitely (full coverage, no termination within the round
// limit) because every lost copy desynchronises the cancelling wavefronts;
// (d) crashes only absorb messages — they shrink coverage but never extend
// the flood.
func FaultInjection(cfg Config) ([]*Table, error) {
	// Part 1: the minimal counterexample, spelled out. In round 1 only the
	// copy 0->3 crosses the edge, so its one-round outage loses exactly
	// that copy.
	minimal := &Table{
		ID:      "E12",
		Title:   "Fault injection: one lost message on the even cycle C4",
		Columns: []string{"round", "surviving deliveries"},
	}
	res, _, err := runModel(gen.Cycle(4), "schedule:outage:round=1,u=0,v=3", cfg.Seed, 0, true, 0)
	if err != nil {
		return nil, fmt.Errorf("E12: C4 single loss: %w", err)
	}
	for _, rec := range res.Trace {
		var edges string
		for i, s := range rec.Sends {
			if i > 0 {
				edges += " "
			}
			edges += s.String()
		}
		minimal.AddRow(rec.Round, edges)
	}
	if res.Outcome != engine.OutcomeCycle {
		return nil, fmt.Errorf("E12: C4 single loss outcome %v, want certified non-termination", res.Outcome)
	}
	minimal.AddNote("losing the single copy 0->3 in round 1 leaves a lonely wavefront that laps the cycle (period %d) — synchronous AF termination (Thm 3.1) is NOT robust to even one lost message", res.Certificate.Length)

	// Part 2: sweeps. Each one-round outage below takes down an edge while
	// only one copy is in flight on it, so it loses exactly that copy.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	sweep := &Table{
		ID:      "E12",
		Title:   "Fault injection sweep",
		Columns: []string{"graph", "model", "outcome", "rounds", "delivered", "lost", "coverage"},
	}
	type testCase struct {
		g     *graph.Graph
		model string
	}
	cases := []testCase{
		{gen.Cycle(4), "schedule:static"},
		{gen.Cycle(4), "schedule:outage:round=1,u=0,v=3"},
		{gen.Cycle(6), "schedule:outage:round=1,u=0,v=5"},
		{gen.Cycle(5), "schedule:outage:round=1,u=0,v=4"},
		{gen.Path(8), "schedule:outage:round=2,u=1,v=2"},
		{gen.CompleteBinaryTree(4), "schedule:loss:p=0.1"},
		{gen.Grid(6, 6), "schedule:loss:p=0.05"},
		{gen.Grid(6, 6), "schedule:loss:p=0.25"},
		{gen.RandomNonBipartite(100, 0.04, rng), "schedule:loss:p=0.1"},
		{gen.Path(6), "schedule:crash:nodes=3,round=1"},
		{gen.Complete(8), "schedule:crash:nodes=2+5,round=2"},
		{gen.Cycle(8), "schedule:crash:nodes=4,round=2"},
	}
	for _, tc := range cases {
		r, cov, err := runModel(tc.g, tc.model, cfg.Seed, 2048, false, 0)
		if err != nil {
			return nil, fmt.Errorf("E12: %s under %s: %w", tc.g, tc.model, err)
		}
		sweep.AddRow(tc.g.Name(), tc.model, r.Outcome, r.Rounds,
			r.TotalMessages, r.Lost, fmt.Sprintf("%d/%d", tc.g.N()-cov.Uncovered(), tc.g.N()))
	}
	sweep.AddNote("loss can both shrink the flood (trees: coverage gaps) and inflate it (cycles: eternal wavefronts); crashes only absorb — they never extend the flood")
	return []*Table{minimal, sweep}, nil
}
