package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// EngineEquivalence is experiment E10: every synchronous engine — the
// deterministic sequential reference, the goroutine-per-node channel engine,
// the zero-allocation CSR engine in sequential and parallel mode, and the
// word-parallel bitset engine — must produce byte-identical traces for
// amnesiac flooding on every instance.
// This validates that the paper's round semantics survive both a genuinely
// concurrent substrate and an aggressively optimised one. The runs go
// through the sim façade, so the dispatch it exercises is exactly the one
// the CLIs and any serving layer use.
func EngineEquivalence(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	t := &Table{
		ID:      "E10",
		Title:   "Engine equivalence: sequential vs channels vs fast vs fast-parallel vs bitset",
		Columns: []string{"graph", "source", "rounds", "messages", "traces identical"},
	}
	instances := []namedGraph{
		{"path", gen.Path(32)},
		{"evenCycle", gen.Cycle(32)},
		{"oddCycle", gen.Cycle(33)},
		{"clique", gen.Complete(16)},
		{"grid", gen.Grid(8, 8)},
		{"petersen", gen.Petersen()},
		{"wheel", gen.Wheel(17)},
		{"lollipop", gen.Lollipop(5, 40)},
		{"torus", gen.Torus(5, 7)},
		{"randomTree", gen.RandomTree(100, rng)},
		{"randomNonBipartite", gen.RandomNonBipartite(100, 0.04, rng)},
		{"randomConnected", gen.RandomConnected(100, 0.04, rng)},
	}
	ctx := context.Background()
	others := []sim.EngineKind{sim.Channels, sim.Fast, sim.Parallel, sim.Bitset}
	for _, inst := range instances {
		src := graph.NodeID(rng.Intn(inst.g.N()))
		runOn := func(kind sim.EngineKind) (engine.Result, error) {
			sess, err := sim.New(inst.g,
				sim.WithProtocol("amnesiac"),
				sim.WithEngine(kind),
				sim.WithOrigins(src),
				sim.WithTrace(true),
			)
			if err != nil {
				return engine.Result{}, err
			}
			return sess.Run(ctx)
		}
		seq, err := runOn(sim.Sequential)
		if err != nil {
			return nil, fmt.Errorf("E10: sequential on %s: %w", inst.g, err)
		}
		if seq.Engine != sim.Sequential.String() {
			return nil, fmt.Errorf("E10: façade attributed %q, want sequential", seq.Engine)
		}
		same := true
		for _, kind := range others {
			res, err := runOn(kind)
			if err != nil {
				return nil, fmt.Errorf("E10: %s on %s: %w", kind, inst.g, err)
			}
			if !engine.EqualTraces(seq.Trace, res.Trace) {
				return nil, fmt.Errorf("E10: %s on %s from %d: traces differ", kind, inst.g, src)
			}
			if seq.Rounds != res.Rounds || seq.TotalMessages != res.TotalMessages {
				return nil, fmt.Errorf("E10: %s on %s from %d: summary mismatch (%d/%d rounds, %d/%d msgs)",
					kind, inst.g, src, seq.Rounds, res.Rounds, seq.TotalMessages, res.TotalMessages)
			}
			if res.Engine != kind.String() {
				return nil, fmt.Errorf("E10: façade attributed %q, want %s", res.Engine, kind)
			}
		}
		t.AddRow(inst.g.Name(), src, seq.Rounds, seq.TotalMessages, same)
	}
	t.AddNote("all five substrates implement the same synchronous round abstraction; every trace compared byte-identical")
	t.AddNote("runs dispatched through the sim façade (protocol registry + session API)")
	return []*Table{t}, nil
}
