package theory_test

import (
	"context"
	"maps"
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
// coverage and termination analyses attached, and returns the result and
// the coverage analyzer.
func run(t *testing.T, g *graph.Graph, origins ...graph.NodeID) (engine.Result, *analysis.Coverage) {
	t.Helper()
	sess, err := sim.New(g, sim.WithOrigins(origins...), sim.WithTrace(true), sim.WithAnalysis("coverage", "termination"))
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

// fed returns an analyzer of the family on g fed the origins and, as round
// i+1, the receivers rounds[i]: the bookkeeping of a run no engine
// produces, for the checks to reject.
func fed(t *testing.T, g *graph.Graph, family string, origins []graph.NodeID, rounds ...[]graph.NodeID) analysis.Analyzer {
	t.Helper()
	a, err := analysis.Build(family, analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(origins); err != nil {
		t.Fatal(err)
	}
	for i, receivers := range rounds {
		f := engine.Frontier{Round: i + 1, Messages: len(receivers), Receivers: slices.Values(receivers)}
		if _, err := a.(engine.FrontierObserver).ObserveFrontier(f); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// doctored is fed's coverage analyzer, read by the odd-gap and sequence
// checks.
func doctored(t *testing.T, g *graph.Graph, origins []graph.NodeID, rounds ...[]graph.NodeID) *analysis.Coverage {
	t.Helper()
	return fed(t, g, "coverage", origins, rounds...).(*analysis.Coverage)
}

// judged returns res carrying, as its termination metrics, the verdict of
// a termination analyzer fed the origins and rounds as fed does: a run
// whose receipts are doctored, for CheckLaw to read.
func judged(t *testing.T, g *graph.Graph, res engine.Result, origins []graph.NodeID, rounds ...[]graph.NodeID) engine.Result {
	t.Helper()
	m, err := fed(t, g, "termination", origins, rounds...).Finish(res)
	if err != nil {
		t.Fatal(err)
	}
	res.Metrics = make(map[string]float64, len(m))
	for k, v := range m {
		res.Metrics["termination."+k] = v
	}
	return res
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

// TestCheckBipartiteExactAcceptsFamilies: on bipartite families from one
// origin, real runs pass the reader, and Lemma 2.1 holds exactly: the run
// ends at e(source), the window is exact, the origin never hears M back,
// and every other node receives it once, at its BFS distance.
func TestCheckBipartiteExactAcceptsFamilies(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		res, cov := run(t, tc.g, tc.src)
		if err := theory.CheckLaw(res); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
		if ecc := algo.Eccentricity(tc.g, tc.src); res.Rounds != ecc || res.Metrics["termination.boundExact"] != 1 {
			t.Errorf("%s from %d: %d rounds, boundExact %g, want exactly e(source) = %d",
				tc.g, tc.src, res.Rounds, res.Metrics["termination.boundExact"], ecc)
		}
		dist, counts, first := algo.BFS(tc.g, tc.src), cov.ReceiveCounts(), cov.FirstReceive()
		for v := range tc.g.N() {
			want := 1
			if graph.NodeID(v) == tc.src {
				want = 0
			}
			if counts[v] != want || (want == 1 && first[v] != dist[v]) {
				t.Errorf("%s from %d: node %d received %d times, first in round %d; want %d, at distance %d",
					tc.g, tc.src, v, counts[v], first[v], want, dist[v])
			}
		}
	}
}

// TestCheckBipartiteExactCatchesDoctoredReports: on a path, a run
// lengthened by a round, a receipt repeated, the origin hearing its echo,
// and a receipt moved a round earlier break the double-cover law, and the
// reader fails each; the run's own rounds, replayed, pass.
func TestCheckBipartiteExactCatchesDoctoredReports(t *testing.T) {
	g := gen.Path(5)
	res, _ := run(t, g, 0)
	origin := []graph.NodeID{0}
	if err := theory.CheckLaw(judged(t, g, res, origin, []graph.NodeID{1}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4})); err != nil {
		t.Fatalf("the run's own rounds, replayed: %v", err)
	}
	lengthened := res
	lengthened.Rounds++
	for name, doctored := range map[string]engine.Result{
		"lengthened":     judged(t, g, lengthened, origin, []graph.NodeID{1}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4}),
		"double receipt": judged(t, g, res, origin, []graph.NodeID{1}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4, 2}),
		"origin echo":    judged(t, g, res, origin, []graph.NodeID{1, 0}, []graph.NodeID{2}, []graph.NodeID{3}, []graph.NodeID{4}),
		"earlier":        judged(t, g, res, origin, []graph.NodeID{1, 3}, []graph.NodeID{2}, nil, []graph.NodeID{4}),
	} {
		if err := theory.CheckLaw(doctored); err == nil || !strings.Contains(err.Error(), "double-cover law") {
			t.Errorf("%s run: err = %v, want a double-cover law violation", name, err)
		}
	}
	// A bipartite window is exact: the lengthened run also falls outside it.
	if within := judged(t, g, lengthened, origin).Metrics["termination.withinBounds"]; within != 0 {
		t.Errorf("lengthened run: withinBounds %g, want 0", within)
	}
}

// TestCheckGeneralBoundsAcceptsNonBipartite: on non-bipartite families from
// one origin, real runs pass the reader, end inside e(source)..2D+1 with
// the exact D (Theorem 3.3), cover every node, and give no node M in more
// than two rounds.
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
		if err := theory.CheckLaw(res); err != nil {
			t.Errorf("%s from %d: %v", tc.g, tc.src, err)
		}
		if ecc, upper := algo.Eccentricity(tc.g, tc.src), 2*algo.Diameter(tc.g)+1; res.Rounds < ecc || res.Rounds > upper {
			t.Errorf("%s from %d: %d rounds outside %d..%d", tc.g, tc.src, res.Rounds, ecc, upper)
		}
		if cov.Uncovered() > 0 || cov.MaxReceives() > 2 {
			t.Errorf("%s from %d: %d nodes uncovered, a node received in %d rounds; want 0 and at most 2",
				tc.g, tc.src, cov.Uncovered(), cov.MaxReceives())
		}
	}
}

// TestCheckGeneralBoundsCatchesViolations: on a triangle, a run past 2D+1,
// a run of no rounds, a node receiving in three rounds, and a node never
// receiving break the double-cover law, and the reader fails each. The run
// of no rounds also falls below the window, which starts at e(source); a
// run past the two-sweep upper end gets no window verdict at all.
func TestCheckGeneralBoundsCatchesViolations(t *testing.T) {
	g := gen.Cycle(3)
	res, _ := run(t, g, 0)
	origin := []graph.NodeID{0}
	own := [][]graph.NodeID{{1, 2}, {1, 2}, {0}}
	if err := theory.CheckLaw(judged(t, g, res, origin, own...)); err != nil {
		t.Fatalf("the run's own rounds, replayed: %v", err)
	}
	tooMany, tooFew := res, res
	tooMany.Rounds = 2*algo.Diameter(g) + 2
	tooFew.Rounds = 0
	for name, doctored := range map[string]engine.Result{
		"beyond 2D+1":   judged(t, g, tooMany, origin, own...),
		"zero rounds":   judged(t, g, tooFew, origin, own...),
		"three rounds":  judged(t, g, res, origin, []graph.NodeID{0, 1, 2}, []graph.NodeID{0}, []graph.NodeID{0}),
		"never reached": judged(t, g, res, origin, []graph.NodeID{1}),
	} {
		if err := theory.CheckLaw(doctored); err == nil || !strings.Contains(err.Error(), "double-cover law") {
			t.Errorf("%s run: err = %v, want a double-cover law violation", name, err)
		}
	}
	if within, ok := judged(t, g, tooFew, origin, own...).Metrics["termination.withinBounds"]; !ok || within != 0 {
		t.Errorf("run of no rounds: withinBounds %g (emitted %t), want 0", within, ok)
	}
}

// TestCheckNonBipartiteStrictOnSymmetricFamilies: on source-symmetric
// non-bipartite families, runs pass the reader and end strictly after the
// diameter, the paper's remark (rounds > D), which irregular graphs can
// break (experiment E5).
func TestCheckNonBipartiteStrictOnSymmetricFamilies(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(3), gen.Cycle(11), gen.Complete(9), gen.Wheel(8), gen.Petersen()} {
		res, _ := run(t, g, 0)
		if err := theory.CheckLaw(res); err != nil {
			t.Errorf("%s: %v", g, err)
		}
		if diam := algo.Diameter(g); res.Rounds <= diam {
			t.Errorf("%s: %d rounds <= diameter %d, want strictly more", g, res.Rounds, diam)
		}
	}
}

// TestCheckLawAcceptsFamilies: real runs from origin sets pass the reader,
// on bipartite graphs with the origins in one colour class or in both, and
// on non-bipartite graphs.
func TestCheckLawAcceptsFamilies(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		origins []graph.NodeID
	}{
		{gen.Path(9), []graph.NodeID{0, 8}}, // one colour class
		{gen.Path(9), []graph.NodeID{0, 5}}, // both classes
		{gen.Grid(4, 7), []graph.NodeID{0, 2, 27}},
		{gen.Cycle(9), []graph.NodeID{0, 3}}, // odd cycle
		{gen.Complete(10), []graph.NodeID{0, 1, 2}},
		{gen.Petersen(), []graph.NodeID{5, 5, 0}}, // a repeated origin counts once
	} {
		res, _ := run(t, tc.g, tc.origins...)
		if err := theory.CheckLaw(res); err != nil {
			t.Errorf("%s from %v: %v", tc.g, tc.origins, err)
		}
	}
}

// TestCheckLawRejectsBrokenRuns: the reader fails a run that did not
// terminate, a run the double-cover law does not predict, a run outside a
// certified window, and a run without termination metrics. The doctored
// streams that make termination report exactOK 0 are in
// internal/analysis (TestTerminationExactOKMatchesCheckOnTampering).
func TestCheckLawRejectsBrokenRuns(t *testing.T) {
	g := gen.Path(5)
	res, _ := run(t, g, 0)
	if err := theory.CheckLaw(res); err != nil {
		t.Fatalf("the run itself: %v", err)
	}
	with := func(key string, v float64) engine.Result {
		doctored := res
		doctored.Metrics = maps.Clone(res.Metrics)
		doctored.Metrics[key] = v
		return doctored
	}
	unterminated := res
	unterminated.Terminated = false
	unmeasured := res
	unmeasured.Metrics = nil
	coverageOnly := res
	coverageOnly.Metrics = maps.Clone(res.Metrics)
	maps.DeleteFunc(coverageOnly.Metrics, func(k string, _ float64) bool { return strings.HasPrefix(k, "termination.") })
	for name, tc := range map[string]struct {
		res  engine.Result
		want string
	}{
		"not terminated":     {unterminated, "did not terminate"},
		"law broken":         {with("termination.exactOK", 0), "double-cover law"},
		"outside the window": {with("termination.withinBounds", 0), "window"},
		"no metrics":         {unmeasured, "no termination.exactOK"},
		"coverage only":      {coverageOnly, "no termination.exactOK"},
	} {
		if err := theory.CheckLaw(tc.res); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

func TestPredictedWindowAlwaysHolds(t *testing.T) {
	// Property: every run from one to three origins on a random connected
	// graph passes the reader, reports e(S) as the multi-source BFS depth,
	// and lands inside the paper's window computed with the exact D:
	// exactly e(S) when the graph is bipartite and the origins lie in one
	// colour class, e(S)..2D+1 otherwise, whether or not two-sweep
	// certified it.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.08, rng)
		origins := make([]graph.NodeID, 1+rng.Intn(3))
		for i := range origins {
			origins[i] = graph.NodeID(rng.Intn(g.N()))
		}
		res, _ := run(t, g, origins...)
		ecc, upper := slices.Max(algo.BFSMulti(g, origins)), 2*algo.Diameter(g)+1
		col := algo.TwoColor(g)
		if col.Bipartite && !slices.ContainsFunc(origins, func(o graph.NodeID) bool { return col.Sides[o] != col.Sides[origins[0]] }) {
			upper = ecc
		}
		return theory.CheckLaw(res) == nil && res.Metrics["termination.eccentricity"] == float64(ecc) &&
			res.Rounds >= ecc && res.Rounds <= upper
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
