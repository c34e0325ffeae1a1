package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// BipartitenessDetection is experiment E9, the application sketched in
// §1.1: probe a connected graph with a single amnesiac flood and decide
// bipartiteness from the flood's behaviour alone (double receipts / late
// termination). Ground truth is BFS two-colouring; the experiment demands
// 100% agreement.
//
// The probe runs through the sim façade with the streaming "bipartite"
// analysis attached, flooding to completion: the verdict, witness count,
// and eccentricity all arrive as metric columns of the run itself, and the
// analysis cross-checks the two witness signals internally.
func BipartitenessDetection(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	t := &Table{
		ID:      "E9",
		Title:   "Topology detection: bipartiteness via a single amnesiac flood",
		Columns: []string{"graph", "source", "truth bipartite", "flood verdict", "rounds", "e(src)", "odd-cycle witnesses"},
	}
	instances := []namedGraph{
		{"path", gen.Path(40)},
		{"evenCycle", gen.Cycle(40)},
		{"oddCycle", gen.Cycle(41)},
		{"grid", gen.Grid(7, 9)},
		{"oddTorus", gen.Torus(5, 5)},
		{"evenTorus", gen.Torus(4, 6)},
		{"clique", gen.Complete(12)},
		{"petersen", gen.Petersen()},
		{"hypercube", gen.Hypercube(5)},
		{"randomTree", gen.RandomTree(120, rng)},
	}
	// Plus a batch of random connected graphs with unknown-by-construction
	// bipartiteness, sized by the config.
	for i := 0; i < cfg.scaled(10); i++ {
		instances = append(instances, namedGraph{
			"randomConnected",
			gen.RandomConnected(60+rng.Intn(60), 0.02+0.02*rng.Float64(), rng),
		})
	}
	agreements := 0
	for _, inst := range instances {
		truth := algo.IsBipartite(inst.g)
		src := graph.NodeID(rng.Intn(inst.g.N()))
		sess, err := sim.New(inst.g,
			sim.WithProtocol("amnesiac"),
			sim.WithEngine(cfg.EngineKind()),
			sim.WithOrigins(src),
			sim.WithAnalysis("bipartite"),
			sim.WithAnalysisStop(false), // full flood: collect every witness, not just the first
		)
		if err != nil {
			return nil, fmt.Errorf("E9: %s: %w", inst.g, err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("E9: %s: %w", inst.g, err)
		}
		verdict := res.Metrics["bipartite.bipartite"] == 1
		if verdict != truth {
			return nil, fmt.Errorf("E9: %s from %d: flood verdict %t disagrees with two-colouring %t",
				inst.g, src, verdict, truth)
		}
		agreements++
		t.AddRow(inst.g.Name(), src, truth, verdict, res.Rounds,
			int(res.Metrics["bipartite.eccentricity"]), int(res.Metrics["bipartite.witnesses"]))
	}
	t.AddNote("%d/%d instances: flood verdict agrees with ground-truth two-colouring (paper §1.1 application)", agreements, agreements)
	t.AddNote("probe = sim façade + the streaming bipartite analysis (sim.WithAnalysis); the verdict, witnesses, and e(src) are the run's own metric columns")
	return []*Table{t}, nil
}
