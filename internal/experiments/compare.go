package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/sim"
)

// ClassicComparison is experiment E8: amnesiac flooding against the
// textbook flag-based flooding the paper contrasts it with (§1). Both run
// on the same synchronous engine and the same instances; the table reports
// rounds, total messages, and the persistent per-node memory each needs.
func ClassicComparison(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	t := &Table{
		ID:    "E8",
		Title: "Amnesiac flooding vs classic (flag-based) flooding",
		Columns: []string{
			"graph", "bipartite", "source",
			"AF rounds", "classic rounds",
			"AF msgs", "classic msgs", "msg ratio",
			"AF bits/node", "classic bits/node",
		},
	}
	instances, err := buildAll(cfg, 400, []specInstance{
		{"path", "path:n=64"},
		{"evenCycle", "cycle:n=64"},
		{"oddCycle", "cycle:n=65"},
		{"grid", "grid:rows=12,cols=12"},
		{"hypercube", "hypercube:d=7"},
		{"clique", "complete:n=24"},
		{"wheel", "wheel:n=25"},
		{"petersen", "petersen"},
		{"randomTree", "tree:n=200"},
		{"randomNonBipartite", "randnonbipartite:n=200,p=0.02"},
	})
	if err != nil {
		return nil, fmt.Errorf("E8: %w", err)
	}
	for _, inst := range instances {
		bip := algo.IsBipartite(inst.g)
		src := graph.NodeID(rng.Intn(inst.g.N()))

		afRes, _, err := flood(cfg, inst.g, false, src)
		if err != nil {
			return nil, fmt.Errorf("E8: AF on %s: %w", inst.g, err)
		}
		clSess, err := sim.New(inst.g,
			sim.WithProtocol("classic"),
			sim.WithEngine(cfg.EngineKind()),
			sim.WithOrigins(src),
		)
		if err != nil {
			return nil, fmt.Errorf("E8: classic on %s: %w", inst.g, err)
		}
		clRes, err := clSess.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("E8: classic on %s: %w", inst.g, err)
		}
		ratio := float64(afRes.TotalMessages) / float64(clRes.TotalMessages)
		t.AddRow(
			inst.g.Name(), bip, src,
			afRes.Rounds, clRes.Rounds,
			afRes.TotalMessages, clRes.TotalMessages, fmt.Sprintf("%.2f", ratio),
			0, classic.PersistentBitsPerNode(),
		)
	}
	t.AddNote("paper's motivation: AF needs zero persistent bits per node; the price is up to ~2x messages and ~2x rounds on non-bipartite graphs")
	t.AddNote("on bipartite graphs AF and classic flooding send identical message sets (both are a parallel BFS)")
	return []*Table{t}, nil
}
