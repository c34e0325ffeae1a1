package theory_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

func mustRun(t *testing.T, g *graph.Graph, src graph.NodeID) *core.Report {
	t.Helper()
	rep, err := core.Run(g, src)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCheckTerminated(t *testing.T) {
	rep := mustRun(t, gen.Path(5), 0)
	if err := theory.CheckTerminated(rep); err != nil {
		t.Fatal(err)
	}
	bad := &core.Report{Result: engine.Result{Terminated: false}}
	if err := theory.CheckTerminated(bad); err == nil {
		t.Fatal("non-terminated report accepted")
	}
}

func TestCheckBipartiteExactAcceptsFamilies(t *testing.T) {
	cases := []struct {
		g   *graph.Graph
		src graph.NodeID
	}{
		{gen.Path(9), 0},
		{gen.Path(9), 4},
		{gen.Cycle(12), 3},
		{gen.Grid(4, 7), 11},
		{gen.Hypercube(5), 17},
		{gen.CompleteBinaryTree(5), 0},
		{gen.CompleteBipartite(4, 6), 2},
		{gen.Star(15), 0},
		{gen.Star(15), 3},
	}
	for _, tc := range cases {
		rep := mustRun(t, tc.g, tc.src)
		if err := theory.CheckBipartiteExact(tc.g, rep); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
	}
}

func TestCheckBipartiteExactRejectsMultiSource(t *testing.T) {
	g := gen.Path(6)
	rep, err := core.Run(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := theory.CheckBipartiteExact(g, rep); err == nil {
		t.Fatal("multi-source report accepted by bipartite check")
	}
}

func TestCheckBipartiteExactCatchesDoctoredReports(t *testing.T) {
	g := gen.Path(5)
	rep := mustRun(t, g, 0)

	tamperRounds := *rep
	tamperRounds.Result.Rounds++
	if err := theory.CheckBipartiteExact(g, &tamperRounds); err == nil ||
		!strings.Contains(err.Error(), "eccentricity") {
		t.Errorf("wrong-rounds report: err = %v, want eccentricity violation", err)
	}

	tamperCounts := *rep
	tamperCounts.ReceiveCounts = append([]int(nil), rep.ReceiveCounts...)
	tamperCounts.ReceiveCounts[2] = 2
	if err := theory.CheckBipartiteExact(g, &tamperCounts); err == nil ||
		!strings.Contains(err.Error(), "exactly once") {
		t.Errorf("double-receipt report: err = %v, want exactly-once violation", err)
	}

	tamperOrigin := *rep
	tamperOrigin.ReceiveCounts = append([]int(nil), rep.ReceiveCounts...)
	tamperOrigin.ReceiveCounts[0] = 1
	if err := theory.CheckBipartiteExact(g, &tamperOrigin); err == nil ||
		!strings.Contains(err.Error(), "origin") {
		t.Errorf("origin-receipt report: err = %v, want origin violation", err)
	}

	tamperFirst := *rep
	tamperFirst.FirstReceive = append([]int(nil), rep.FirstReceive...)
	tamperFirst.FirstReceive[3] = 1
	if err := theory.CheckBipartiteExact(g, &tamperFirst); err == nil ||
		!strings.Contains(err.Error(), "BFS distance") {
		t.Errorf("wrong-distance report: err = %v, want BFS distance violation", err)
	}
}

func TestCheckGeneralBoundsAcceptsNonBipartite(t *testing.T) {
	for _, tc := range []struct {
		g   *graph.Graph
		src graph.NodeID
	}{
		{gen.Cycle(3), 0},
		{gen.Cycle(9), 2},
		{gen.Complete(7), 1},
		{gen.Wheel(9), 0},
		{gen.Petersen(), 5},
		{gen.Lollipop(4, 5), 8},
	} {
		rep := mustRun(t, tc.g, tc.src)
		if err := theory.CheckGeneralBounds(tc.g, rep); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
	}
}

func TestCheckGeneralBoundsCatchesViolations(t *testing.T) {
	g := gen.Cycle(3)
	rep := mustRun(t, g, 0)

	tooMany := *rep
	tooMany.Result.Rounds = 2*algo.Diameter(g) + 2
	if err := theory.CheckGeneralBounds(g, &tooMany); err == nil ||
		!strings.Contains(err.Error(), "2D+1") {
		t.Errorf("rounds-beyond-bound report: err = %v", err)
	}

	tooFew := *rep
	tooFew.Result.Rounds = 0
	if err := theory.CheckGeneralBounds(g, &tooFew); err == nil {
		t.Error("zero-round covered report accepted")
	}

	triple := *rep
	triple.ReceiveCounts = []int{3, 1, 1}
	if err := theory.CheckGeneralBounds(g, &triple); err == nil ||
		!strings.Contains(err.Error(), "distinct rounds") {
		t.Errorf("triple-receipt report: err = %v", err)
	}

	uncovered := *rep
	uncovered.ReceiveCounts = []int{0, 1, 0} // node 2 never got M
	if err := theory.CheckGeneralBounds(g, &uncovered); err == nil ||
		!strings.Contains(err.Error(), "never received") {
		t.Errorf("uncovered report: err = %v", err)
	}
}

func TestCheckNonBipartiteStrictOnSymmetricFamilies(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(3), gen.Cycle(11), gen.Complete(9), gen.Wheel(8), gen.Petersen()} {
		rep := mustRun(t, g, 0)
		if err := theory.CheckNonBipartiteStrict(g, rep); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
}

func TestCheckOddGapInvariantAcceptsRealRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*graph.Graph{
		gen.Cycle(3), gen.Cycle(8), gen.Complete(6), gen.Petersen(),
		gen.Grid(4, 5), gen.RandomNonBipartite(50, 0.06, rng),
	}
	for _, g := range graphs {
		rep := mustRun(t, g, 0)
		if err := theory.CheckOddGapInvariant(rep); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
}

func TestCheckOddGapInvariantCatchesEvenGap(t *testing.T) {
	// Doctor a report whose round-sets contain node 7 at rounds 2 and 4.
	rep := &core.Report{
		Origins:       []graph.NodeID{0},
		ReceiveCounts: make([]int, 8),
		RoundSets: [][]graph.NodeID{
			1: {7}, // index 1 -> round 2
		},
	}
	rep.RoundSets = [][]graph.NodeID{{1}, {7}, {3}, {7}} // rounds 1..4
	if err := theory.CheckOddGapInvariant(rep); err == nil ||
		!strings.Contains(err.Error(), "even duration") {
		t.Fatalf("even-gap report: err = %v", err)
	}
}

func TestCheckOddGapIncludesOriginRound0(t *testing.T) {
	// Origin in R_0 and again in R_2 is an even gap.
	rep := &core.Report{
		Origins:       []graph.NodeID{4},
		ReceiveCounts: make([]int, 5),
		RoundSets:     [][]graph.NodeID{{1}, {4}}, // round 2 contains origin
	}
	if err := theory.CheckOddGapInvariant(rep); err == nil {
		t.Fatal("origin even-gap accepted")
	}
}

func TestPredictTermination(t *testing.T) {
	// Bipartite: exact window at e(source), the double-cover round.
	g := gen.Grid(3, 5)
	b := theory.PredictTermination(g, 0)
	if ecc := algo.Eccentricity(g, 0); !b.Exact || b.Lower != b.Upper || b.Lower != ecc || b.Rounds != ecc || !b.Certified {
		t.Fatalf("bipartite bound = %+v", b)
	}
	// Non-bipartite: e(source) .. 2*max(LB, e(source))+1, here 2D+1.
	tri := gen.Cycle(3)
	b = theory.PredictTermination(tri, 0)
	if b.Exact || b.Lower != 1 || b.Upper != 3 || b.Rounds != 3 || !b.Certified {
		t.Fatalf("triangle bound = %+v", b)
	}
	// Two-sweep undershoots D: the upper end is not certified and not
	// returned.
	b = theory.PredictTermination(pendantC5(t), 1)
	if b.Exact || b.Lower != 2 || b.Upper != 0 || b.Rounds != 6 || b.Certified {
		t.Fatalf("pendant C5 bound = %+v", b)
	}
}

// pendantC5 is the 5-cycle 0-1-2-5-3 with node 4 hung on node 1, where
// two-sweep from node 0 undershoots the diameter: LB = 2, D = 3. From node
// 1 (e = 2) the flood takes 6 rounds, within 2D+1 = 7 but past
// 2*max(LB, e)+1 = 5.
func pendantC5(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges("pendant-C5", 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 5}, {U: 5, V: 3}, {U: 3, V: 0}, {U: 1, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPredictedWindowAlwaysHolds(t *testing.T) {
	// Property: every measured run lands inside its predicted window, and
	// inside the paper's e(source)..2D+1 (exactly e(source) when
	// bipartite) with the exact D, whether or not two-sweep certified it.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.08, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		rep, err := core.Run(g, src)
		if err != nil {
			return false
		}
		ecc, upper := algo.Eccentricity(g, src), 2*algo.Diameter(g)+1
		if algo.IsBipartite(g) {
			upper = ecc
		}
		return theory.PredictTermination(g, src).Holds(rep.Rounds()) && rep.Rounds() >= ecc && rep.Rounds() <= upper
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundHolds(t *testing.T) {
	check := func(b theory.Bound, want map[int]bool) {
		t.Helper()
		for rounds, ok := range want {
			if b.Holds(rounds) != ok {
				t.Errorf("%+v: Holds(%d) = %t, want %t", b, rounds, b.Holds(rounds), ok)
			}
		}
	}
	// As PredictTermination builds them: only the exact round holds, on a
	// bipartite component (e = 4), a certified non-bipartite one (the
	// triangle) and an uncertified one (two-sweep undershot D).
	check(theory.PredictTermination(gen.Path(5), 0), map[int]bool{3: false, 4: true, 5: false})
	check(theory.PredictTermination(gen.Cycle(3), 0), map[int]bool{1: false, 2: false, 3: true, 4: false})
	check(theory.PredictTermination(pendantC5(t), 1), map[int]bool{2: false, 5: false, 6: true, 7: false})
	// The paper's window is checked as well as the exact round: a round
	// that is not e(source) on a bipartite component (Lemma 2.1), or below
	// e(source) in general, fails even where it is the predicted one.
	check(theory.Bound{Exact: true, Lower: 3, Upper: 3, Rounds: 4, Certified: true}, map[int]bool{3: false, 4: false})
	check(theory.Bound{Lower: 5, Rounds: 4}, map[int]bool{4: false, 5: false})
	check(theory.Bound{Lower: 2, Upper: 5, Rounds: 6, Certified: true}, map[int]bool{5: false, 6: false})
}
