package theory_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/graph"
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

// TestCheckDoubleCoverExactAcceptsOriginSets: the law and its check hold
// for origin sets, in one colour class or in both, and a tampered set run
// is still rejected.
func TestCheckDoubleCoverExactAcceptsOriginSets(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		origins []graph.NodeID
	}{
		{gen.Path(5), []graph.NodeID{0, 4}},
		{gen.Path(9), []graph.NodeID{0, 5}},
		{gen.Grid(5, 5), []graph.NodeID{0, 1}},
		{gen.Cycle(9), []graph.NodeID{0, 3}},
		{gen.Complete(10), []graph.NodeID{0, 1, 2}},
		{gen.Petersen(), []graph.NodeID{7, 0, 7}},
	} {
		res, cov := run(t, tc.g, tc.origins...)
		if err := theory.CheckDoubleCoverExact(tc.g, res, cov); err != nil {
			t.Errorf("%s from %v: %v", tc.g, tc.origins, err)
		}
		res.Rounds++
		if err := theory.CheckDoubleCoverExact(tc.g, res, cov); err == nil {
			t.Errorf("%s from %v: tampered rounds accepted", tc.g, tc.origins)
		}
	}
}

// TestCheckNonBipartiteExactlyTwice: on a connected non-bipartite graph,
// from every source, the cover reaches every node in both parities, so the
// origin receives M once (its even distance is 0) and every other node in
// exactly two rounds; the run passes the law's check and its reader.
func TestCheckNonBipartiteExactlyTwice(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomNonBipartite(3+rng.Intn(40), 0.08, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		res, cov := run(t, g, src)
		for v, got := range cov.ReceiveCounts() {
			want := 2
			if graph.NodeID(v) == src {
				want = 1
			}
			if got != want {
				t.Logf("%s from %d: node %d received %d times, want %d", g, src, v, got, want)
				return false
			}
		}
		return theory.CheckDoubleCoverExact(g, res, cov) == nil && theory.CheckLaw(res) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
