package theory_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

func TestCheckDoubleCoverExactAcceptsRealRuns(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Path(7), gen.Cycle(6), gen.Cycle(7), gen.Complete(8),
		gen.Petersen(), gen.Grid(4, 5), gen.Lollipop(4, 6),
	} {
		res, cov := run(t, g, 0)
		if err := theory.CheckDoubleCoverExact(g, res, cov); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
}

func TestCheckDoubleCoverExactCatchesTampering(t *testing.T) {
	g := gen.Cycle(5)
	res, cov := run(t, g, 0)

	wrongRounds := res
	wrongRounds.Rounds++
	if err := theory.CheckDoubleCoverExact(g, wrongRounds, cov); err == nil {
		t.Error("tampered rounds accepted")
	}

	wrongMsgs := res
	wrongMsgs.TotalMessages++
	if err := theory.CheckDoubleCoverExact(g, wrongMsgs, cov); err == nil {
		t.Error("tampered message count accepted")
	}

	rounds := make([][]graph.NodeID, len(res.Trace))
	for i, rec := range res.Trace {
		rounds[i] = rec.Receivers()
	}
	if err := theory.CheckDoubleCoverExact(g, res, doctored(t, g, []graph.NodeID{0}, rounds...)); err != nil {
		t.Fatalf("the run's own rounds, replayed: %v", err)
	}
	rounds[0] = append(rounds[0], 2) // node 2 also receives in round 1
	if err := theory.CheckDoubleCoverExact(g, res, doctored(t, g, []graph.NodeID{0}, rounds...)); err == nil {
		t.Error("tampered receive counts accepted")
	}
}

func TestCheckDoubleCoverExactRejectsMultiSource(t *testing.T) {
	g := gen.Path(5)
	res, cov := run(t, g, 0, 4)
	if err := theory.CheckDoubleCoverExact(g, res, cov); err == nil {
		t.Fatal("multi-source run accepted")
	}
}

func TestCheckNonBipartiteExactlyTwice(t *testing.T) {
	// Holds on every connected non-bipartite instance from every source.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomNonBipartite(3+rng.Intn(40), 0.08, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		_, cov := run(t, g, src)
		return theory.CheckNonBipartiteExactlyTwice(g, cov) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNonBipartiteExactlyTwiceRejectsBipartiteRuns(t *testing.T) {
	// On bipartite graphs everyone receives once, so the check must fail
	// loudly — guarding against misuse.
	g := gen.Cycle(8)
	if !algo.IsBipartite(g) {
		t.Fatal("C8 should be bipartite")
	}
	_, cov := run(t, g, 0)
	if err := theory.CheckNonBipartiteExactlyTwice(g, cov); err == nil {
		t.Fatal("bipartite run passed the exactly-twice check")
	}
}
