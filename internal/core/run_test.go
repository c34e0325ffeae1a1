package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// run floods g from the origins through a sim session on the given engine,
// traced, with the coverage analysis attached, and returns the result and
// the analyzer.
func run(t *testing.T, kind sim.EngineKind, g *graph.Graph, origins ...graph.NodeID) (engine.Result, *analysis.Coverage) {
	t.Helper()
	sess, err := sim.New(g, sim.WithEngine(kind), sim.WithOrigins(origins...),
		sim.WithTrace(true), sim.WithAnalysis("coverage"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cov, _ := sess.Coverage()
	return res, cov
}

func TestRunFig1Line(t *testing.T) {
	// Figure 1: line a-b-c-d from b, 2 rounds.
	res, cov := run(t, sim.Sequential, gen.Path(4), 1)
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if res.TotalMessages != 3 {
		t.Fatalf("messages = %d, want 3 (b->a, b->c, c->d)", res.TotalMessages)
	}
	var roundSets [][]graph.NodeID // the paper's R_1, R_2, ...
	for _, rec := range res.Trace {
		roundSets = append(roundSets, rec.Receivers())
	}
	if want := [][]graph.NodeID{{0, 2}, {3}}; !reflect.DeepEqual(roundSets, want) {
		t.Fatalf("round sets = %v, want %v", roundSets, want)
	}
	if cov.Uncovered() != 0 || cov.MaxReceives() != 1 {
		t.Fatalf("uncovered=%d maxReceives=%d", cov.Uncovered(), cov.MaxReceives())
	}
}

func TestRunFig2Triangle(t *testing.T) {
	// Figure 2: triangle from b, 3 rounds: a and c receive in rounds 1
	// and 2, b receives in round 3.
	res, cov := run(t, sim.Sequential, gen.Cycle(3), 1)
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	wantCounts := []int{2, 1, 2} // a: rounds 1,2; b: round 3; c: rounds 1,2
	if !reflect.DeepEqual(cov.ReceiveCounts(), wantCounts) {
		t.Fatalf("receive counts = %v, want %v", cov.ReceiveCounts(), wantCounts)
	}
	if first, last := cov.FirstReceive()[1], cov.LastReceive()[1]; first != 3 || last != 3 {
		t.Fatalf("origin receives: first=%d last=%d, want 3/3", first, last)
	}
	if cov.MaxReceives() != 2 {
		t.Fatalf("max receives = %d, want 2", cov.MaxReceives())
	}
}

func TestRunBothEnginesAgree(t *testing.T) {
	g := gen.Petersen()
	seq, seqCov := run(t, sim.Sequential, g, 0)
	chn, chnCov := run(t, sim.Channels, g, 0)
	if seq.Rounds != chn.Rounds || seq.TotalMessages != chn.TotalMessages {
		t.Fatalf("engines disagree: %d/%d rounds, %d/%d messages",
			seq.Rounds, chn.Rounds, seq.TotalMessages, chn.TotalMessages)
	}
	if !reflect.DeepEqual(seqCov.ReceiveCounts(), chnCov.ReceiveCounts()) {
		t.Fatalf("receive counts differ: %v vs %v", seqCov.ReceiveCounts(), chnCov.ReceiveCounts())
	}
}

func TestRunPropagatesOriginErrors(t *testing.T) {
	g := gen.Path(3)
	if _, err := sim.NewProtocol("amnesiac", sim.Spec{Graph: g}); !errors.Is(err, core.ErrNoOrigin) {
		t.Fatalf("run with no origins: err = %v, want ErrNoOrigin", err)
	}
	if _, err := sim.New(g, sim.WithOrigins(99)); !errors.Is(err, core.ErrBadOrigin) {
		t.Fatalf("run with invalid origin: err = %v, want ErrBadOrigin", err)
	}
}

func TestCoveredFalseWhenUnreached(t *testing.T) {
	// Disconnected graph: the other component is never covered.
	g, err := graph.FromEdges("", 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, cov := run(t, sim.Sequential, g, 0); cov.Uncovered() != 2 {
		t.Fatalf("disconnected run: %d nodes uncovered, want 2", cov.Uncovered())
	}
}

func TestSingletonOriginTerminatesImmediately(t *testing.T) {
	g, err := graph.FromEdges("", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, cov := run(t, sim.Sequential, g, 0)
	if res.Rounds != 0 || !res.Terminated || cov.Uncovered() != 0 {
		t.Fatalf("singleton: %+v", res)
	}
}

func TestMultiSourceAllNodes(t *testing.T) {
	// Every node an origin on an even cycle: each node hears from both
	// neighbours in round 1, complement empty, terminates in 1 round.
	res, _ := run(t, sim.Sequential, gen.Cycle(6), 0, 1, 2, 3, 4, 5)
	if res.Rounds != 1 {
		t.Fatalf("all-origins rounds = %d, want 1", res.Rounds)
	}
	if res.TotalMessages != 12 {
		t.Fatalf("all-origins messages = %d, want 12", res.TotalMessages)
	}
}

func TestBipartiteParallelBFSProperty(t *testing.T) {
	// Property (Lemma 2.1): on random connected bipartite graphs the flood
	// reaches each node exactly once, at its BFS distance, and dies at
	// round e(source).
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.Connectify(gen.RandomBipartite(2+rng.Intn(20), 2+rng.Intn(20), 0.2, rng), rng)
		src := graph.NodeID(rng.Intn(g.N()))
		res, cov := run(t, sim.Sequential, g, src)
		if res.Rounds != algo.Eccentricity(g, src) {
			return false
		}
		dist := algo.BFS(g, src)
		counts, first := cov.ReceiveCounts(), cov.FirstReceive()
		for v := 0; v < g.N(); v++ {
			if graph.NodeID(v) == src {
				if counts[v] != 0 {
					return false
				}
				continue
			}
			if counts[v] != 1 || first[v] != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralTerminationProperty(t *testing.T) {
	// Property (Theorems 3.1/3.3): on random connected graphs the flood
	// terminates within 2D+1 rounds, covers the graph, and no node
	// receives in more than two rounds.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(50), 0.08, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		res, cov := run(t, sim.Sequential, g, src)
		diam := algo.Diameter(g)
		return res.Terminated &&
			res.Rounds <= 2*diam+1 &&
			res.Rounds >= algo.Eccentricity(g, src) &&
			cov.Uncovered() == 0 &&
			cov.MaxReceives() <= 2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSourceTerminationProperty(t *testing.T) {
	// Extension (full paper): amnesiac flooding also terminates from any
	// set of origins. The 2D+1 bound is not claimed for multi-source in
	// the brief announcement; we assert termination and coverage only,
	// plus a generous 2n bound on rounds.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(3+rng.Intn(40), 0.08, rng)
		k := 1 + rng.Intn(4)
		origins := make([]graph.NodeID, 0, k)
		for i := 0; i < k; i++ {
			origins = append(origins, graph.NodeID(rng.Intn(g.N())))
		}
		res, cov := run(t, sim.Sequential, g, origins...)
		return res.Terminated && res.Rounds <= 2*g.N() && cov.Uncovered() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
