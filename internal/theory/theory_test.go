package theory_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/analysis"
	_ "amnesiacflood/internal/core" // registers the amnesiac protocol
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/theory"
)

// run floods g from the origins on the sequential engine, traced, with the
// coverage analysis attached, and returns the result and the analyzer.
func run(t *testing.T, g *graph.Graph, origins ...graph.NodeID) (engine.Result, *analysis.Coverage) {
	t.Helper()
	sess, err := sim.New(g, sim.WithOrigins(origins...), sim.WithTrace(true), sim.WithAnalysis("coverage"))
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

// doctored returns a coverage analyzer on g fed the origins and, as round
// i+1, the receivers rounds[i]: the bookkeeping of a run no engine
// produces, for the checks to reject.
func doctored(t *testing.T, g *graph.Graph, origins []graph.NodeID, rounds ...[]graph.NodeID) *analysis.Coverage {
	t.Helper()
	a, err := analysis.Build("coverage", analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	cov := a.(*analysis.Coverage)
	if err := cov.Start(origins); err != nil {
		t.Fatal(err)
	}
	for i, receivers := range rounds {
		f := engine.Frontier{Round: i + 1, Messages: len(receivers), Receivers: slices.Values(receivers)}
		if _, err := cov.ObserveFrontier(f); err != nil {
			t.Fatal(err)
		}
	}
	return cov
}

func TestCheckTerminated(t *testing.T) {
	res, _ := run(t, gen.Path(5), 0)
	if err := theory.CheckTerminated(res); err != nil {
		t.Fatal(err)
	}
	if err := theory.CheckTerminated(engine.Result{Terminated: false}); err == nil {
		t.Fatal("non-terminated run accepted")
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
		res, cov := run(t, tc.g, tc.src)
		if err := theory.CheckBipartiteExact(tc.g, res, cov); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
	}
}

func TestCheckBipartiteExactRejectsMultiSource(t *testing.T) {
	g := gen.Path(6)
	res, cov := run(t, g, 0, 5)
	if err := theory.CheckBipartiteExact(g, res, cov); err == nil {
		t.Fatal("multi-source run accepted by bipartite check")
	}
}

func TestCheckBipartiteExactCatchesDoctoredReports(t *testing.T) {
	g := gen.Path(5)
	res, cov := run(t, g, 0)
	origin := []graph.NodeID{0}
	if err := theory.CheckBipartiteExact(g, res, doctored(t, g, origin, []graph.NodeID{1}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4})); err != nil {
		t.Fatalf("the run's own rounds, replayed: %v", err)
	}

	tamperRounds := res
	tamperRounds.Rounds++
	if err := theory.CheckBipartiteExact(g, tamperRounds, cov); err == nil ||
		!strings.Contains(err.Error(), "eccentricity") {
		t.Errorf("wrong-rounds run: err = %v, want eccentricity violation", err)
	}

	twice := doctored(t, g, origin, []graph.NodeID{1}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4, 2})
	if err := theory.CheckBipartiteExact(g, res, twice); err == nil ||
		!strings.Contains(err.Error(), "exactly once") {
		t.Errorf("double-receipt run: err = %v, want exactly-once violation", err)
	}

	echo := doctored(t, g, origin, []graph.NodeID{1, 0}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4})
	if err := theory.CheckBipartiteExact(g, res, echo); err == nil ||
		!strings.Contains(err.Error(), "origin") {
		t.Errorf("origin-receipt run: err = %v, want origin violation", err)
	}

	early := doctored(t, g, origin, []graph.NodeID{1, 3}, []graph.NodeID{2}, nil, []graph.NodeID{4})
	if err := theory.CheckBipartiteExact(g, res, early); err == nil ||
		!strings.Contains(err.Error(), "BFS distance") {
		t.Errorf("wrong-distance run: err = %v, want BFS distance violation", err)
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
		res, cov := run(t, tc.g, tc.src)
		if err := theory.CheckGeneralBounds(tc.g, res, cov); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
	}
}

func TestCheckGeneralBoundsCatchesViolations(t *testing.T) {
	g := gen.Cycle(3)
	res, cov := run(t, g, 0)
	origin := []graph.NodeID{0}

	tooMany := res
	tooMany.Rounds = 2*algo.Diameter(g) + 2
	if err := theory.CheckGeneralBounds(g, tooMany, cov); err == nil ||
		!strings.Contains(err.Error(), "2D+1") {
		t.Errorf("rounds-beyond-bound run: err = %v", err)
	}

	tooFew := res
	tooFew.Rounds = 0
	if err := theory.CheckGeneralBounds(g, tooFew, cov); err == nil {
		t.Error("zero-round covered run accepted")
	}

	triple := doctored(t, g, origin, []graph.NodeID{0, 1, 2}, []graph.NodeID{0}, []graph.NodeID{0})
	if err := theory.CheckGeneralBounds(g, res, triple); err == nil ||
		!strings.Contains(err.Error(), "distinct rounds") {
		t.Errorf("triple-receipt run: err = %v", err)
	}

	uncovered := doctored(t, g, origin, []graph.NodeID{1}) // node 2 never got M
	if err := theory.CheckGeneralBounds(g, res, uncovered); err == nil ||
		!strings.Contains(err.Error(), "never received") {
		t.Errorf("uncovered run: err = %v", err)
	}
}

func TestCheckNonBipartiteStrictOnSymmetricFamilies(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(3), gen.Cycle(11), gen.Complete(9), gen.Wheel(8), gen.Petersen()} {
		res, cov := run(t, g, 0)
		if err := theory.CheckNonBipartiteStrict(g, res, cov); err != nil {
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
		_, cov := run(t, g, 0)
		if err := theory.CheckOddGapInvariant(cov); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
}

func TestCheckOddGapInvariantCatchesEvenGap(t *testing.T) {
	// Node 7 in round-sets R_2 and R_4.
	cov := doctored(t, gen.Path(8), []graph.NodeID{0}, []graph.NodeID{1}, []graph.NodeID{7}, []graph.NodeID{3}, []graph.NodeID{7})
	if err := theory.CheckOddGapInvariant(cov); err == nil ||
		!strings.Contains(err.Error(), "even duration") {
		t.Fatalf("even-gap run: err = %v", err)
	}
}

func TestCheckOddGapIncludesOriginRound0(t *testing.T) {
	// Origin in R_0 and again in R_2 is an even gap.
	cov := doctored(t, gen.Path(5), []graph.NodeID{4}, []graph.NodeID{1}, []graph.NodeID{4})
	if err := theory.CheckOddGapInvariant(cov); err == nil {
		t.Fatal("origin even-gap accepted")
	}
}

// TestOddGapChecksRejectThirdRoundSet: coverage keeps a node's first and
// last receive round only, so a node in three round-sets must fail both
// checks even where first and last are an odd duration apart: two of the
// three share a parity.
func TestOddGapChecksRejectThirdRoundSet(t *testing.T) {
	g := gen.Path(8)
	for name, cov := range map[string]*analysis.Coverage{
		// Node 7 in R_1, R_2 and R_4: first to last is 3, R_2 to R_4 is 2.
		"three receipts": doctored(t, g, []graph.NodeID{0}, []graph.NodeID{7}, []graph.NodeID{7}, nil, []graph.NodeID{7}),
		// Origin 0 in R_0, R_1 and R_2: R_0 to R_2 is 2.
		"origin receives twice": doctored(t, g, []graph.NodeID{0}, []graph.NodeID{0, 1}, []graph.NodeID{0, 2}),
	} {
		if err := theory.CheckOddGapInvariant(cov); err == nil || !strings.Contains(err.Error(), "3 round-sets") {
			t.Errorf("%s: gap check err = %v, want a third round-set", name, err)
		}
		if err := theory.CheckSequenceMachinery(cov); err == nil || !strings.Contains(err.Error(), "3 round-sets") {
			t.Errorf("%s: sequence check err = %v, want a third round-set", name, err)
		}
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
		res, _ := run(t, g, src)
		ecc, upper := algo.Eccentricity(g, src), 2*algo.Diameter(g)+1
		if algo.IsBipartite(g) {
			upper = ecc
		}
		return theory.PredictTermination(g, src).Holds(res.Rounds) && res.Rounds >= ecc && res.Rounds <= upper
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
