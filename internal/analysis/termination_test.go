package analysis_test

import (
	"context"
	"slices"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/theory"
)

// TestTerminationMatchesDoubleCover is the termination analysis's
// differential gate: on the corpus, from three origins, on every engine,
// exactRounds is doublecover.Predict's round and exactOK agrees with
// theory.CheckDoubleCoverExact on a traced run. Wherever withinBounds is
// emitted it equals the window computed with the exact diameter, exactly
// e(src) on a bipartite graph and e(src)..2D+1 otherwise, and boundUpper
// is at most 2D+1.
func TestTerminationMatchesDoubleCover(t *testing.T) {
	for _, g := range corpus(t) {
		diam, bipartite := algo.Diameter(g), algo.IsBipartite(g)
		for _, src := range []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)} {
			pred := doublecover.Predict(g, src)
			sess, ref := runTraced(t, g, src, "coverage")
			cov, _ := sess.Coverage()
			lawOK := theory.CheckDoubleCoverExact(g, ref, cov) == nil
			ecc := algo.Eccentricity(g, src)
			upper := ecc
			if !bipartite {
				upper = 2*diam + 1
			}
			for _, kind := range allEngines {
				sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(kind),
					sim.WithOrigins(src), sim.WithAnalysis("termination"))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sess.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				m := res.Metrics
				if got := int(m["termination.exactRounds"]); got != pred.Rounds {
					t.Fatalf("%s from %d on %s: exactRounds %d, doublecover.Predict %d", g, src, kind, got, pred.Rounds)
				}
				if got := m["termination.exactOK"] == 1; got != lawOK {
					t.Fatalf("%s from %d on %s: exactOK %t, CheckDoubleCoverExact %t", g, src, kind, got, lawOK)
				}
				within, ok := m["termination.withinBounds"]
				if _, hasUpper := m["termination.boundUpper"]; hasUpper != ok {
					t.Fatalf("%s from %d on %s: boundUpper emitted %t, withinBounds %t", g, src, kind, hasUpper, ok)
				}
				if !ok {
					continue
				}
				if want := res.Rounds >= ecc && res.Rounds <= upper; (within == 1) != want {
					t.Fatalf("%s from %d on %s: withinBounds %g, exact-diameter window %d..%d holds %t",
						g, src, kind, within, ecc, upper, want)
				}
				if got := int(m["termination.boundUpper"]); got > upper {
					t.Fatalf("%s from %d on %s: boundUpper %d exceeds %d", g, src, kind, got, upper)
				}
			}
		}
	}
}

// TestTerminationExactOKMatchesCheckOnTampering: exactOK is not vacuous.
// Streams doctored like theory's tampering tests (a receipt withheld, a
// stray receipt added, the run lengthened) get exactOK 0 exactly where
// theory.CheckDoubleCoverExact rejects the doctored run. The window
// verdict is not vacuous either: always emitted on a bipartite graph, and
// wherever emitted equal to the window computed with the exact diameter,
// so a lengthened bipartite run gets withinBounds 0.
func TestTerminationExactOKMatchesCheckOnTampering(t *testing.T) {
	for _, g := range corpus(t) {
		src := graph.NodeID(0)
		ecc, bipartite := algo.Eccentricity(g, src), algo.IsBipartite(g)
		upper := ecc
		if !bipartite {
			upper = 2*algo.Diameter(g) + 1
		}
		_, res := runTraced(t, g, src)
		if len(res.Trace) == 0 {
			continue
		}
		last := len(res.Trace) - 1
		withheld := res.Trace[last].Sends[0].To
		lengthened := res
		lengthened.Rounds++
		tampered := map[string]engine.Result{
			"untouched": res,
			"withheld": withTrace(res, func(trace []engine.RoundRecord) {
				trace[last].Sends = slices.DeleteFunc(trace[last].Sends, func(s engine.Send) bool { return s.To == withheld })
			}),
			"stray": withTrace(res, func(trace []engine.RoundRecord) {
				trace[0].Sends = append(trace[0].Sends, engine.Send{From: src, To: src})
			}),
			"lengthened": lengthened,
		}
		for name, doctored := range tampered {
			m, err := replay(t, g, "termination", src, doctored.Trace).Finish(doctored)
			if err != nil {
				t.Fatal(err)
			}
			cov := replay(t, g, "coverage", src, doctored.Trace).(*analysis.Coverage)
			lawOK := theory.CheckDoubleCoverExact(g, doctored, cov) == nil
			if got := m["exactOK"] == 1; got != lawOK || got != (name == "untouched") {
				t.Fatalf("%s %s: exactOK %t, CheckDoubleCoverExact %t", g, name, got, lawOK)
			}
			within, ok := m["withinBounds"]
			if bipartite && !ok {
				t.Fatalf("%s %s: no withinBounds on a bipartite graph", g, name)
			}
			if want := doctored.Rounds >= ecc && doctored.Rounds <= upper; ok && (within == 1) != want {
				t.Fatalf("%s %s: %d rounds, withinBounds %g, exact-diameter window %d..%d holds %t",
					g, name, doctored.Rounds, within, ecc, upper, want)
			}
		}
	}
}

// replay streams a trace from src through a fresh analyzer of the family.
func replay(t *testing.T, g *graph.Graph, family string, src graph.NodeID, trace []engine.RoundRecord) analysis.Analyzer {
	t.Helper()
	a, err := analysis.Build(family, analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start([]graph.NodeID{src}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range trace {
		if _, err := a.ObserveRound(rec); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// withTrace returns res with a deep copy of its trace, edited by edit.
func withTrace(res engine.Result, edit func([]engine.RoundRecord)) engine.Result {
	trace := make([]engine.RoundRecord, len(res.Trace))
	for i, rec := range res.Trace {
		trace[i] = engine.RoundRecord{Round: rec.Round, Sends: slices.Clone(rec.Sends)}
	}
	edit(trace)
	res.Trace = trace
	return res
}

// TestTerminationUncertifiedWindowIsAbsent is the window decision with a
// two-sweep bound too small to certify the run. On lollipop:k=4,path=7 the
// flood from node 6 takes 13 rounds with e(6) = 4. The true bound LB = 8
// certifies it (13 <= 17). With LB pinned to 4, 2*max(LB, e)+1 = 9 proves
// nothing, so boundUpper and withinBounds are absent, not 0, while the
// lower bound and the exact law are still reported.
func TestTerminationUncertifiedWindowIsAbsent(t *testing.T) {
	g := gen.MustBuild("lollipop:k=4,path=7", 1)
	for _, tc := range []struct {
		lb        int
		certified bool
	}{{lb: 8, certified: true}, {lb: 4}} {
		sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(6), sim.WithAnalysis("termination"))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := sess.Analysis("termination")
		analysis.SetDiameterLowerBound(a.(*analysis.Termination), tc.lb)
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if res.Rounds != 13 || m["termination.boundLower"] != 4 || m["termination.boundExact"] != 0 ||
			m["termination.exactRounds"] != 13 || m["termination.exactOK"] != 1 {
			t.Fatalf("LB %d: rounds %d, metrics %v", tc.lb, res.Rounds, m)
		}
		upper, hasUpper := m["termination.boundUpper"]
		within, hasWithin := m["termination.withinBounds"]
		if tc.certified {
			if upper != 17 || within != 1 {
				t.Fatalf("LB %d: boundUpper %g (%t), withinBounds %g (%t), want 17 and 1", tc.lb, upper, hasUpper, within, hasWithin)
			}
		} else if hasUpper || hasWithin {
			t.Fatalf("LB %d: boundUpper %g (%t), withinBounds %g (%t), want both absent", tc.lb, upper, hasUpper, within, hasWithin)
		}
	}
}
