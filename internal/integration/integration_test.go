// Package integration_test sweeps the full invariant matrix: every claim
// the repository makes about amnesiac flooding, checked on every instance
// of a curated catalog. Unit tests verify the pieces; this file verifies
// the assembled system the way a release gate would.
package integration_test

import (
	"context"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/faults"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/theory"

	// Registers the protocols and model families addressed below.
	_ "amnesiacflood/internal/registry/all"
)

// catalogSeed builds the random instances of the catalog.
const catalogSeed = 20190729

// instance is one catalog row: a graph spec (internal/graph/gen grammar)
// with declared properties.
type instance struct {
	name string
	spec string
	// bipartite declares two-colourability.
	bipartite bool
	// symmetric marks vertex-transitive instances (cycles, cliques,
	// hypercubes, tori, Petersen), on which every source behaves
	// identically.
	symmetric bool
}

// catalog is the instance set the matrix sweeps: the paper's figures,
// structured families on both sides of bipartiteness, and seeded random
// families. TestCatalogDeclaredPropertiesHold checks every row's
// declarations, which the matrix relies on.
var catalog = []instance{
	// The paper's figures.
	{name: "fig1-line", spec: "path:n=4", bipartite: true},
	{name: "fig2-triangle", spec: "cycle:n=3", symmetric: true},
	{name: "fig3-evenCycle", spec: "cycle:n=6", bipartite: true, symmetric: true},

	// Structured bipartite.
	{name: "path-64", spec: "path:n=64", bipartite: true},
	{name: "evenCycle-64", spec: "cycle:n=64", bipartite: true, symmetric: true},
	{name: "star-33", spec: "star:n=33", bipartite: true},
	{name: "grid-8x13", spec: "grid:rows=8,cols=13", bipartite: true},
	{name: "binaryTree-6", spec: "bintree:levels=6", bipartite: true},
	{name: "hypercube-7", spec: "hypercube:d=7", bipartite: true, symmetric: true},
	{name: "completeBipartite-9x14", spec: "bipartite:a=9,b=14", bipartite: true},
	{name: "evenTorus-6x8", spec: "torus:rows=6,cols=8", bipartite: true, symmetric: true},

	// Structured non-bipartite.
	{name: "oddCycle-65", spec: "cycle:n=65", symmetric: true},
	{name: "clique-17", spec: "complete:n=17", symmetric: true},
	{name: "wheel-18", spec: "wheel:n=18"},
	{name: "petersen", spec: "petersen", symmetric: true},
	{name: "lollipop-5x12", spec: "lollipop:k=5,path=12"},
	{name: "barbell-5x9", spec: "barbell:k=5,path=9"},
	{name: "oddTorus-5x7", spec: "torus:rows=5,cols=7", symmetric: true},

	// Randomized.
	{name: "randomTree-150", spec: "tree:n=150", bipartite: true},
	{name: "randomBipartite-40x45", spec: "randbipartite:a=40,b=45,p=0.06", bipartite: true},
	{name: "randomConnected-150", spec: "randconnected:n=150,p=0.04"}, // almost surely non-bipartite
	{name: "randomNonBipartite-150", spec: "randnonbipartite:n=150,p=0.03"},
	{name: "prefAttach-150x3", spec: "prefattach:n=150,m=3"}, // triangles abound
}

// TestCatalogDeclaredPropertiesHold verifies each row's declared
// properties against ground truth: connected, bipartite exactly as
// declared, and — for symmetric instances — every node of equal degree and
// eccentricity, the vertex-transitivity invariants that make one source
// representative.
func TestCatalogDeclaredPropertiesHold(t *testing.T) {
	for _, inst := range catalog {
		t.Run(inst.name, func(t *testing.T) {
			g := gen.MustBuild(inst.spec, catalogSeed)
			if !algo.Connected(g) {
				t.Fatal("catalog instance must be connected")
			}
			if got := algo.IsBipartite(g); got != inst.bipartite {
				t.Fatalf("bipartite = %t, declared %t", got, inst.bipartite)
			}
			if !inst.symmetric {
				return
			}
			deg, ecc := g.Degree(0), algo.Eccentricity(g, 0)
			for v := 1; v < g.N(); v++ {
				if g.Degree(graph.NodeID(v)) != deg || algo.Eccentricity(g, graph.NodeID(v)) != ecc {
					t.Fatalf("declared symmetric, but node %d differs from node 0 in degree or eccentricity", v)
				}
			}
		})
	}
}

// sourcesFor picks a small deterministic source set: node 0, the middle,
// and the last node (fewer for symmetric instances, where all sources are
// equivalent).
func sourcesFor(inst instance, g *graph.Graph) []graph.NodeID {
	if inst.symmetric {
		return []graph.NodeID{0}
	}
	set := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, s := range []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)} {
		if !set[s] {
			set[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestInvariantMatrix(t *testing.T) {
	for _, inst := range catalog {
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			g := gen.MustBuild(inst.spec, catalogSeed)
			for _, src := range sourcesFor(inst, g) {
				rep, err := core.Run(g, src)
				if err != nil {
					t.Fatalf("source %d: %v", src, err)
				}

				// Theorem 3.1 + 3.3 bounds, coverage, receipt caps.
				if err := theory.CheckGeneralBounds(g, rep); err != nil {
					t.Errorf("general bounds: %v", err)
				}
				// Lemma 2.1 exactness on bipartite instances.
				if inst.bipartite {
					if err := theory.CheckBipartiteExact(g, rep); err != nil {
						t.Errorf("bipartite exactness: %v", err)
					}
				}
				// The Figure 4 / Lemma 3.2 machinery.
				if err := theory.CheckSequenceMachinery(rep); err != nil {
					t.Errorf("sequence machinery: %v", err)
				}
				// The double-cover law: exact prediction.
				if err := theory.CheckDoubleCoverExact(g, rep); err != nil {
					t.Errorf("double cover: %v", err)
				}
				// Paper's predicted termination window.
				if !theory.PredictTermination(g, src).Holds(rep.Rounds()) {
					t.Errorf("termination window violated: %d rounds", rep.Rounds())
				}

				// Engine equivalence on the same protocol instance.
				flood, err := core.NewFlood(g, src)
				if err != nil {
					t.Fatal(err)
				}
				chn, err := chanengine.Run(context.Background(), g, flood, engine.Options{Trace: true})
				if err != nil {
					t.Fatalf("channel engine: %v", err)
				}
				if !engine.EqualTraces(rep.Result.Trace, chn.Trace) {
					t.Error("channel engine trace differs from sequential")
				}

				// The same flood's analyses: the bipartiteness verdict
				// agrees with ground truth and the spanning tree is a valid
				// BFS tree.
				sess, err := sim.New(g, sim.WithOrigins(src),
					sim.WithAnalysis("bipartite", "spantree"), sim.WithAnalysisStop(false))
				if err != nil {
					t.Fatal(err)
				}
				ares, err := sess.Run(context.Background())
				if err != nil {
					t.Fatalf("analysed flood: %v", err)
				}
				if ares.Rounds != rep.Rounds() {
					t.Errorf("analysed flood ran %d rounds, plain flood %d", ares.Rounds, rep.Rounds())
				}
				if verdict := ares.Metrics["bipartite.bipartite"] == 1; verdict != algo.IsBipartite(g) {
					t.Errorf("detection verdict %t disagrees with ground truth", verdict)
				}
				tree, _ := sess.SpanTree()
				if err := tree.Validate(g); err != nil {
					t.Errorf("spanning tree: %v", err)
				}

				// The zero-delay adversary, the static schedule, and the
				// zero-fault injector all reproduce the synchronous run.
				for _, mdl := range []string{"adversary:sync", "schedule:static"} {
					sess, err := sim.New(g, sim.WithModel(mdl), sim.WithOrigins(src))
					if err != nil {
						t.Fatalf("model control %s: %v", mdl, err)
					}
					mres, err := sess.Run(context.Background())
					if err != nil {
						t.Fatalf("model control %s: %v", mdl, err)
					}
					if mres.Outcome != engine.OutcomeTerminated || mres.Rounds != rep.Rounds() {
						t.Errorf("%s control diverged: %v after %d rounds", mdl, mres.Outcome, mres.Rounds)
					}
				}
				fres, err := faults.Run(g, faults.NoFaults{}, faults.Options{}, src)
				if err != nil {
					t.Fatalf("faults control: %v", err)
				}
				if fres.Outcome != faults.Terminated || fres.Rounds != rep.Rounds() {
					t.Errorf("faults control diverged: %v after %d rounds", fres.Outcome, fres.Rounds)
				}
			}
		})
	}
}

// TestFigureInstancesExactRounds pins the three paper figures to their
// exact round counts through the catalog path as well.
func TestFigureInstancesExactRounds(t *testing.T) {
	want := map[string]struct {
		source graph.NodeID
		rounds int
	}{
		"fig1-line":      {1, 2},
		"fig2-triangle":  {1, 3},
		"fig3-evenCycle": {0, 3},
	}
	for _, inst := range catalog[:3] {
		expect, ok := want[inst.name]
		if !ok {
			t.Fatalf("unexpected figure instance %q", inst.name)
		}
		rep, err := core.Run(gen.MustBuild(inst.spec, catalogSeed), expect.source)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds() != expect.rounds {
			t.Errorf("%s: %d rounds, want %d", inst.name, rep.Rounds(), expect.rounds)
		}
	}
}
