package analysis_test

import (
	"context"
	"math/rand"
	"testing"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// bipartiteRun floods g from src on the given engine with only the
// bipartite analysis attached — stopping at the first witness when stop is
// set, flooding to completion otherwise — and returns the verdict, the
// witnesses, and the run's result.
func bipartiteRun(t *testing.T, g *graph.Graph, src graph.NodeID, kind sim.EngineKind, stop bool) (bool, []graph.NodeID, engine.Result) {
	t.Helper()
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(kind), sim.WithOrigins(src),
		sim.WithAnalysis("bipartite"), sim.WithAnalysisStop(stop))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatalf("%s from %d on %s: %v", g, src, kind, err)
	}
	witnesses, ok := sess.Witnesses()
	if !ok {
		t.Fatal("no bipartite analyzer on session")
	}
	return res.Metrics["bipartite.bipartite"] == 1, witnesses, res
}

// TestBipartiteVerdicts: from every source of each family, the full flood
// reports the known verdict, with witnesses exactly when it is
// non-bipartite.
func TestBipartiteVerdicts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"path", gen.Path(12), true},
		{"evenCycle", gen.Cycle(10), true},
		{"oddCycle", gen.Cycle(11), false},
		{"triangle", gen.Cycle(3), false},
		{"grid", gen.Grid(5, 4), true},
		{"clique", gen.Complete(8), false},
		{"petersen", gen.Petersen(), false},
		{"hypercube", gen.Hypercube(4), true},
		{"star", gen.Star(9), true},
		{"singleton", gen.Path(1), true},
		{"K2", gen.Path(2), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for src := 0; src < tc.g.N(); src++ {
				verdict, witnesses, _ := bipartiteRun(t, tc.g, graph.NodeID(src), sim.Sequential, false)
				if verdict != tc.want {
					t.Fatalf("source %d: verdict %t, want %t", src, verdict, tc.want)
				}
				if tc.want != (len(witnesses) == 0) {
					t.Fatalf("source %d: verdict %t with witnesses %v", src, verdict, witnesses)
				}
			}
		})
	}
}

// TestBipartiteAgreesWithTwoColoringOnRandomGraphs (the E9 claim): on
// seeded random connected graphs from random sources, the full-flood
// verdict equals BFS two-colouring.
func TestBipartiteAgreesWithTwoColoringOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range randomGraphs(t) {
		src := graph.NodeID(rng.Intn(g.N()))
		verdict, _, _ := bipartiteRun(t, g, src, sim.Sequential, false)
		if truth := algo.IsBipartite(g); verdict != truth {
			t.Fatalf("%s from %d: verdict %t, two-colouring %t", g, src, verdict, truth)
		}
	}
}

// TestBipartiteWitnessesAreGenuineDoubleReceivers: on seeded random
// non-bipartite graphs, every witness heard M in two distinct rounds, or is
// the source hearing it back.
func TestBipartiteWitnessesAreGenuineDoubleReceivers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 60 {
		g := gen.RandomNonBipartite(3+rng.Intn(40), 0.05, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		sess, res, rep := runBoth(t, g, src, "bipartite")
		if res.Metrics["bipartite.bipartite"] == 1 {
			t.Fatalf("%s from %d: non-bipartite graph declared bipartite", g, src)
		}
		witnesses, _ := sess.Witnesses()
		if len(witnesses) == 0 {
			t.Fatalf("%s from %d: no witness reported", g, src)
		}
		for _, w := range witnesses {
			if rep.ReceiveCounts[w] < 2 && (w != src || rep.ReceiveCounts[w] < 1) {
				t.Fatalf("%s from %d: witness %d received M in %d rounds", g, src, w, rep.ReceiveCounts[w])
			}
		}
	}
}

// TestBipartiteEarlyStopMatchesTwoColoring: the early-stopping analysis
// agrees with BFS two-colouring on every instance, from random sources, on
// every engine.
func TestBipartiteEarlyStopMatchesTwoColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []*graph.Graph{
		gen.Path(16), gen.Cycle(20), gen.Cycle(21), gen.Grid(6, 6),
		gen.Petersen(), gen.Hypercube(4), gen.Wheel(12),
		gen.RandomTree(40, rng), gen.RandomConnected(50, 0.08, rng),
	}
	for _, g := range graphs {
		truth := algo.IsBipartite(g)
		for _, kind := range []sim.EngineKind{sim.Sequential, sim.Channels, sim.Fast, sim.Parallel, sim.Bitset} {
			src := graph.NodeID(rng.Intn(g.N()))
			if verdict, _, _ := bipartiteRun(t, g, src, kind, true); verdict != truth {
				t.Errorf("%s from %d on %s: verdict %t, two-colouring %t", g, src, kind, verdict, truth)
			}
		}
	}
}

// TestBipartiteEarlyStopBeforeFullFlood: on an odd cycle the early-stopping
// analysis reports a witness and stops before the full flood dies.
func TestBipartiteEarlyStopBeforeFullFlood(t *testing.T) {
	g := gen.Cycle(41)
	_, _, full := bipartiteRun(t, g, 0, sim.Fast, false)
	verdict, witnesses, res := bipartiteRun(t, g, 0, sim.Fast, true)
	if verdict {
		t.Fatal("odd cycle declared bipartite")
	}
	if len(witnesses) == 0 {
		t.Fatal("no witness reported")
	}
	if !res.Stopped || res.Rounds >= full.Rounds {
		t.Fatalf("stopped=%t after %d rounds, full flood %d — expected an early stop", res.Stopped, res.Rounds, full.Rounds)
	}
}
