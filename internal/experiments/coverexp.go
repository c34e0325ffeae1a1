package experiments

import (
	"fmt"
	"math/rand"

	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

// DoubleCoverPrediction is experiment E11 (full-paper machinery): the
// bipartite double cover predicts every single-source run exactly — the
// termination round, the message total, the per-node receipt schedule, and
// the complete per-round trace — from two BFS passes and no simulation.
// This is the analysis that yields Theorem 3.3's 2D+1 bound; here it is
// checked as an executable law on every family in the suite.
func DoubleCoverPrediction(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	t := &Table{
		ID:    "E11",
		Title: "Full-paper machinery: exact prediction via the bipartite double cover",
		Columns: []string{
			"graph", "bipartite", "source",
			"predicted rounds", "measured rounds",
			"predicted msgs", "measured msgs",
			"double receivers", "trace identical",
		},
	}
	instances := []namedGraph{
		{"line", gen.Path(4)},
		{"triangle", gen.Cycle(3)},
		{"evenCycle", gen.Cycle(6)},
		{"oddCycle", gen.Cycle(31)},
		{"clique", gen.Complete(12)},
		{"wheel", gen.Wheel(13)},
		{"petersen", gen.Petersen()},
		{"grid", gen.Grid(6, 7)},
		{"hypercube", gen.Hypercube(6)},
		{"lollipop", gen.Lollipop(4, 10)},
		{"barbell", gen.Barbell(4, 8)},
		{"randomTree", gen.RandomTree(150, rng)},
		{"randomNonBipartite", gen.RandomNonBipartite(150, 0.03, rng)},
		{"randomConnected", gen.RandomConnected(150, 0.03, rng)},
	}
	for _, inst := range instances {
		for _, src := range pickSources(inst.g, rng) {
			res, cov, err := flood(cfg, inst.g, true, src)
			if err != nil {
				return nil, fmt.Errorf("E11: %s from %d: %w", inst.g, src, err)
			}
			if err := theory.CheckDoubleCoverExact(inst.g, res, cov); err != nil {
				return nil, fmt.Errorf("E11: %w", err)
			}
			pred := doublecover.Predict(inst.g, src)
			t.AddRow(
				inst.g.Name(), algo.IsBipartite(inst.g), src,
				pred.Rounds, res.Rounds,
				pred.TotalMessages, res.TotalMessages,
				len(pred.SecondReceivers()), true,
			)
		}
	}
	t.AddNote("every prediction matched the simulation byte for byte (rounds, messages, receipt schedules, full trace)")
	t.AddNote("the cover reduces Lemma 2.1 (bipartite: one reachable parity per node) and Theorem 3.3 (cover distances <= 2D+1) to BFS facts")
	return []*Table{t}, nil
}
