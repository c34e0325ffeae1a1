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
// differential gate: on the corpus, from three single origins and two
// origin sets, on every engine, exactRounds is doublecover.Predict's round,
// eccentricity is e(S), the depth of algo.BFSMulti, and exactOK agrees with
// theory.CheckDoubleCoverExact on a traced run. Wherever withinBounds is
// emitted it equals the window computed with the exact diameter, exactly
// e(S) on a bipartite graph whose origins lie in one colour class and
// e(S)..2D+1 otherwise, and boundUpper is at most 2D+1.
func TestTerminationMatchesDoubleCover(t *testing.T) {
	for _, g := range corpus(t) {
		diam, col := algo.Diameter(g), algo.TwoColor(g)
		last := graph.NodeID(g.N() - 1)
		for _, origins := range [][]graph.NodeID{{0}, {last / 2}, {last}, {0, last}, {0, 1, last / 2}} {
			pred := doublecover.Predict(g, origins...)
			ecc := slices.Max(algo.BFSMulti(g, origins))
			upper := 2*diam + 1
			if col.Bipartite && !slices.ContainsFunc(origins, func(o graph.NodeID) bool { return col.Sides[o] != col.Sides[origins[0]] }) {
				upper = ecc
			}
			ref, cov := tracedFrom(t, g, origins)
			lawOK := theory.CheckDoubleCoverExact(g, ref, cov) == nil
			for _, kind := range allEngines {
				sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(kind),
					sim.WithOrigins(origins...), sim.WithAnalysis("termination"))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sess.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				m := res.Metrics
				if got := int(m["termination.exactRounds"]); got != pred.Rounds {
					t.Fatalf("%s from %v on %s: exactRounds %d, doublecover.Predict %d", g, origins, kind, got, pred.Rounds)
				}
				if got := int(m["termination.eccentricity"]); got != ecc {
					t.Fatalf("%s from %v on %s: eccentricity %d, algo.BFSMulti depth %d", g, origins, kind, got, ecc)
				}
				if got := m["termination.exactOK"] == 1; got != lawOK {
					t.Fatalf("%s from %v on %s: exactOK %t, CheckDoubleCoverExact %t", g, origins, kind, got, lawOK)
				}
				within, ok := m["termination.withinBounds"]
				if _, hasUpper := m["termination.boundUpper"]; hasUpper != ok {
					t.Fatalf("%s from %v on %s: boundUpper emitted %t, withinBounds %t", g, origins, kind, hasUpper, ok)
				}
				if !ok {
					continue
				}
				if want := res.Rounds >= ecc && res.Rounds <= upper; (within == 1) != want {
					t.Fatalf("%s from %v on %s: withinBounds %g, exact-diameter window %d..%d holds %t",
						g, origins, kind, within, ecc, upper, want)
				}
				if got := int(m["termination.boundUpper"]); got > upper {
					t.Fatalf("%s from %v on %s: boundUpper %d exceeds %d", g, origins, kind, got, upper)
				}
			}
		}
	}
}

// tracedFrom is a traced sequential flood from the origins with coverage
// attached, the run theory.CheckDoubleCoverExact reads.
func tracedFrom(t *testing.T, g *graph.Graph, origins []graph.NodeID) (engine.Result, *analysis.Coverage) {
	t.Helper()
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(origins...),
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

// TestTerminationExactOKMatchesCheckOnTampering: exactOK is not vacuous.
// Doctored streams (a receipt withheld, the origin hearing its own echo, a
// receipt moved a round earlier, an extra receipt, a third one for a node
// that receives twice, the run lengthened or shortened by a round) get
// exactOK 0 exactly where
// theory.CheckDoubleCoverExact rejects the doctored run. The window
// verdict is not vacuous either: always emitted on a bipartite graph, and
// wherever emitted equal to the window computed with the exact diameter,
// so a lengthened or shortened bipartite run gets withinBounds 0.
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
		lengthened, shortened := res, res
		lengthened.Rounds++
		shortened.Rounds--
		tampered := map[string]engine.Result{
			"untouched": res,
			"withheld": withTrace(res, func(trace []engine.RoundRecord) {
				trace[last].Sends = slices.DeleteFunc(trace[last].Sends, func(s engine.Send) bool { return s.To == withheld })
			}),
			"stray": withTrace(res, func(trace []engine.RoundRecord) {
				trace[0].Sends = append(trace[0].Sends, engine.Send{From: src, To: src})
			}),
			"lengthened": lengthened,
			"shortened":  shortened,
		}
		if last > 0 {
			tampered["earlier"] = withTrace(res, func(trace []engine.RoundRecord) {
				trace[last].Sends = slices.DeleteFunc(trace[last].Sends, func(s engine.Send) bool { return s.To == withheld })
				trace[last-1].Sends = append(trace[last-1].Sends, engine.Send{From: src, To: withheld})
			})
		}
		// An extra receipt in a round the law does not give the node: a
		// third for a node that receives twice, a second on a bipartite
		// graph.
		receipts, v := doublecover.Predict(g, src).Receipts, withheld
		if twice := slices.IndexFunc(receipts, func(r []int) bool { return len(r) == 2 }); twice >= 0 {
			v = graph.NodeID(twice)
		}
		if extra := slices.IndexFunc(res.Trace, func(rec engine.RoundRecord) bool { return !slices.Contains(receipts[v], rec.Round) }); extra >= 0 {
			tampered["extra"] = withTrace(res, func(trace []engine.RoundRecord) {
				trace[extra].Sends = append(trace[extra].Sends, engine.Send{From: src, To: v})
			})
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
