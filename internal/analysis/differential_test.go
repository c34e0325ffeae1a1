package analysis_test

// The differential gate of the analysis registry: on seeded instance
// corpora (≥20 per family), the streaming analyses must reproduce
// independent post-hoc implementations — the frozen trace walks in
// analysistest for coverage, bipartite (verdict, witnesses, and the
// early-stop round) and spantree, termdetect.Run for echo — field for
// field, plus closed-form agreement of the termination analysis on the
// families whose exact constants the double-cover law pins (path, cycle,
// complete, star, hypercube).

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/analysis/analysistest"
	_ "amnesiacflood/internal/core" // registers the amnesiac protocol
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/termdetect"
)

// corpus returns the shared differential instances: a seeded mix of
// deterministic and random families, bipartite and not, 24 in all.
func corpus(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	specs := []string{
		"path:n=17", "cycle:n=16", "cycle:n=17", "complete:n=9", "star:n=12",
		"grid:rows=5,cols=6", "hypercube:d=4", "petersen", "wheel:n=9",
		"lollipop:k=4,path=7", "barbell:k=4,path=5", "torus:rows=4,cols=6",
	}
	for _, spec := range specs {
		out = append(out, gen.MustBuild(spec, 1))
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, spec := range []string{
			"tree:n=40", "randconnected:n=40,p=0.08", "randnonbipartite:n=40,p=0.08",
		} {
			out = append(out, gen.MustBuild(spec, seed))
		}
	}
	if len(out) < 20 {
		t.Fatalf("corpus has %d instances, want >= 20", len(out))
	}
	return out
}

// randomGraphs returns seeded random connected graphs of 2–51 nodes and
// varied density: extra differential inputs, and the property inputs on
// which the bipartite verdict must equal two-colouring and the spanning
// tree must be a BFS tree.
func randomGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	out := make([]*graph.Graph, 60)
	for i := range out {
		out[i] = gen.RandomConnected(2+rng.Intn(50), 0.03+0.1*rng.Float64(), rng)
	}
	return out
}

// allEngines is every synchronous engine the façade runs.
var allEngines = []sim.EngineKind{sim.Sequential, sim.Channels, sim.Fast, sim.Bitset}

// runTraced executes one traced single-source amnesiac flood on the
// sequential engine with the given analyses attached. Tracing disables
// analysis-driven early stopping, so the streamed state covers the full run
// exactly like a post-hoc walk of the returned trace.
func runTraced(t *testing.T, g *graph.Graph, src graph.NodeID, analyses ...string) (*sim.Session, engine.Result) {
	t.Helper()
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithOrigins(src),
		sim.WithAnalysis(analyses...),
		sim.WithTrace(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sess, res
}

// TestCoverageMatchesTraceWalk: on every engine, traced and untraced, the
// streamed receive bookkeeping and verdicts equal analysistest's walk of a
// traced sequential run. Untraced bitset runs feed coverage through the
// frontier path, whose receivers come unordered and may repeat.
func TestCoverageMatchesTraceWalk(t *testing.T) {
	for _, g := range corpus(t) {
		for _, src := range []graph.NodeID{0, graph.NodeID(g.N() / 2)} {
			_, ref := runTraced(t, g, src)
			counts, first, last := analysistest.ReceiptsFromTrace(g.N(), ref)
			uncovered, most := 0, slices.Max(counts)
			for v, n := range counts {
				if n == 0 && graph.NodeID(v) != src {
					uncovered++
				}
			}
			for _, kind := range allEngines {
				for _, traced := range []bool{false, true} {
					sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(kind),
						sim.WithOrigins(src), sim.WithAnalysis("coverage"), sim.WithTrace(traced))
					if err != nil {
						t.Fatal(err)
					}
					res, err := sess.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					cov, ok := sess.Coverage()
					if !ok {
						t.Fatal("no coverage analyzer on session")
					}
					at := fmt.Sprintf("%s from %d on %s (traced %t)", g, src, kind, traced)
					if !slices.Equal(cov.ReceiveCounts(), counts) {
						t.Fatalf("%s: receive counts diverge\nstream: %v\nwalk:   %v", at, cov.ReceiveCounts(), counts)
					}
					if !slices.Equal(cov.FirstReceive(), first) {
						t.Fatalf("%s: first-receive diverges", at)
					}
					if !slices.Equal(cov.LastReceive(), last) {
						t.Fatalf("%s: last-receive diverges", at)
					}
					if cov.Uncovered() != uncovered || cov.MaxReceives() != most {
						t.Fatalf("%s: uncovered %d, maxReceives %d; walk %d, %d", at, cov.Uncovered(), cov.MaxReceives(), uncovered, most)
					}
					m := res.Metrics
					if (m["coverage.covered"] == 1) != (uncovered == 0) || int(m["coverage.uncovered"]) != uncovered ||
						int(m["coverage.maxReceives"]) != most {
						t.Fatalf("%s: metrics %v disagree with the walk (uncovered %d, maxReceives %d)", at, m, uncovered, most)
					}
					if _, stray := m["termination.rounds"]; stray {
						t.Fatalf("%s: unattached analysis leaked metrics", at)
					}
				}
			}
		}
	}
}

// TestBipartiteMatchesDetectFromReport: on the corpus plus the seeded
// random graphs, the full-flood verdict, eccentricity, and witness set
// equal the frozen post-hoc walk's.
func TestBipartiteMatchesDetectFromReport(t *testing.T) {
	for _, g := range append(corpus(t), randomGraphs(t)...) {
		src := graph.NodeID(0)
		sess, res := runTraced(t, g, src, "bipartite")
		legacy, err := analysistest.DetectFromReport(g, src, res)
		if err != nil {
			t.Fatalf("%s: legacy verdict: %v", g, err)
		}
		m := res.Metrics
		if got := m["bipartite.bipartite"] == 1; got != legacy.Bipartite {
			t.Fatalf("%s: verdict %t, legacy %t", g, got, legacy.Bipartite)
		}
		if got, want := int(m["bipartite.eccentricity"]), legacy.Eccentricity; got != want {
			t.Fatalf("%s: eccentricity %d, legacy %d", g, got, want)
		}
		witnesses, ok := sess.Witnesses()
		if !ok {
			t.Fatal("no bipartite analyzer on session")
		}
		got := append([]graph.NodeID(nil), witnesses...)
		want := append([]graph.NodeID(nil), legacy.DoubleReceivers...)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: witnesses %v, legacy %v", g, got, want)
		}
	}
}

// TestBipartiteEarlyStopMatchesProbe: without a trace, a bipartite-only
// session on every engine stops at the round analysistest.ProbeStopRound
// reads off a full trace — the first in which some node hears M in a
// second distinct round, or the source hears it at all — and floods
// bipartite graphs to completion.
func TestBipartiteEarlyStopMatchesProbe(t *testing.T) {
	for _, g := range corpus(t) {
		_, full := runTraced(t, g, 0)
		stop := analysistest.ProbeStopRound(0, full)
		wantRounds := stop
		if stop == 0 {
			wantRounds = full.Rounds
		}
		for _, kind := range allEngines {
			sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(kind),
				sim.WithOrigins(0), sim.WithAnalysis("bipartite"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics["bipartite.bipartite"] == 1; got != (stop == 0) {
				t.Fatalf("%s on %s: verdict %t, probe oracle stops at round %d", g, kind, got, stop)
			}
			if res.Rounds != wantRounds || res.Stopped != (stop != 0) {
				t.Fatalf("%s on %s: rounds=%d stopped=%t, want rounds=%d stopped=%t",
					g, kind, res.Rounds, res.Stopped, wantRounds, stop != 0)
			}
		}
	}
}

// TestSpanTreeMatchesFromReport: on the corpus plus the seeded random
// graphs, the streamed tree equals the frozen post-hoc walk's and is valid.
func TestSpanTreeMatchesFromReport(t *testing.T) {
	for _, g := range append(corpus(t), randomGraphs(t)...) {
		src := graph.NodeID(g.N() - 1)
		sess, res := runTraced(t, g, src, "spantree")
		legacy := analysistest.SpanTreeFromReport(g, src, res)
		tree, ok := sess.SpanTree()
		if !ok {
			t.Fatal("no spantree analyzer on session")
		}
		if tree.Root != legacy.Root || !slices.Equal(tree.Parent, legacy.Parent) || !slices.Equal(tree.Depth, legacy.Depth) {
			t.Fatalf("%s from %d: streamed tree diverges from the post-hoc walk", g, src)
		}
		if err := tree.Validate(g); err != nil {
			t.Fatalf("%s from %d: %v", g, src, err)
		}
		maxDepth := slices.Max(legacy.Depth)
		if got := int(res.Metrics["spantree.depth"]); got != maxDepth {
			t.Fatalf("%s from %d: depth metric %d, legacy %d", g, src, got, maxDepth)
		}
		if got := int(res.Metrics["spantree.reached"]); got != g.N() {
			t.Fatalf("%s from %d: reached %d of %d", g, src, got, g.N())
		}
	}
}

// TestSpanTreeEarlyStopMatchesFromReport: a spantree-only session stops the
// flood in the round its last node is adopted — the post-hoc tree's depth —
// with the same tree; on non-bipartite graphs that is before the flood
// would die.
func TestSpanTreeEarlyStopMatchesFromReport(t *testing.T) {
	for _, g := range corpus(t) {
		_, full := runTraced(t, g, 0)
		legacy := analysistest.SpanTreeFromReport(g, 0, full)
		sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(0), sim.WithAnalysis("spantree"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := slices.Max(legacy.Depth); !res.Stopped || res.Rounds != want {
			t.Fatalf("%s: rounds=%d stopped=%t, want a stop at round %d", g, res.Rounds, res.Stopped, want)
		}
		if !algo.IsBipartite(g) && res.Rounds >= full.Rounds {
			t.Fatalf("%s: stopped at round %d, the full flood runs %d", g, res.Rounds, full.Rounds)
		}
		tree, _ := sess.SpanTree()
		if !slices.Equal(tree.Parent, legacy.Parent) || !slices.Equal(tree.Depth, legacy.Depth) {
			t.Fatalf("%s: early-stopped tree diverges from the post-hoc walk", g)
		}
	}
}

func TestEchoMatchesTermdetect(t *testing.T) {
	for _, g := range corpus(t) {
		src := graph.NodeID(0)
		_, res := runTraced(t, g, src, "echo")
		legacy, err := termdetect.Run(g, src)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		checks := map[string]int{
			"echo.detectionRound": legacy.DetectionRound,
			"echo.floodRounds":    legacy.FloodRounds,
			"echo.floodMessages":  legacy.FloodMessages,
			"echo.ackMessages":    legacy.AckMessages,
			"echo.totalMessages":  legacy.TotalMessages(),
			"echo.covered":        legacy.CoverageCount(),
		}
		for key, want := range checks {
			if got := int(m[key]); got != want {
				t.Fatalf("%s: %s = %d, legacy %d", g, key, got, want)
			}
		}
	}
}

// TestTerminationClosedForms: on every recognised family spec the
// termination analysis must find the run matching its closed form, across
// sizes and sources — the paper's exact constants as a metric column.
func TestTerminationClosedForms(t *testing.T) {
	type inst struct {
		spec string
		srcs []graph.NodeID
	}
	var instances []inst
	for _, n := range []int{2, 5, 9, 16} {
		instances = append(instances, inst{fmt.Sprintf("path:n=%d", n), []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}})
	}
	for _, n := range []int{3, 6, 9, 16, 21} {
		instances = append(instances, inst{fmt.Sprintf("cycle:n=%d", n), []graph.NodeID{0, graph.NodeID(n / 3)}})
	}
	for _, n := range []int{2, 3, 7, 12} {
		instances = append(instances, inst{fmt.Sprintf("complete:n=%d", n), []graph.NodeID{0, graph.NodeID(n - 1)}})
	}
	for _, n := range []int{4, 9, 17} {
		instances = append(instances, inst{fmt.Sprintf("star:n=%d", n), []graph.NodeID{0, graph.NodeID(n - 1)}})
	}
	for _, d := range []int{1, 3, 5, 7} {
		instances = append(instances, inst{fmt.Sprintf("hypercube:d=%d", d), []graph.NodeID{0, 1}})
	}
	if len(instances) < 20 {
		t.Fatalf("closed-form corpus has %d instances, want >= 20", len(instances))
	}
	for _, in := range instances {
		g := gen.MustBuild(in.spec, 1)
		sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithAnalysis("termination"))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range in.srcs {
			results, err := sess.RunBatch(context.Background(), []graph.NodeID{src})
			if err != nil {
				t.Fatal(err)
			}
			m := results[0].Metrics
			cf, ok := m["termination.closedForm"]
			if !ok {
				t.Fatalf("%s: no closed form recognised", in.spec)
			}
			if m["termination.closedFormOK"] != 1 {
				t.Fatalf("%s from %d: rounds %g != closed form %g",
					in.spec, src, m["termination.rounds"], cf)
			}
			if m["termination.withinBounds"] != 1 {
				t.Fatalf("%s from %d: outside the e(src)..2D+1 window", in.spec, src)
			}
		}
	}
}

// TestSessionReuseAcrossBatch: one session's analyzers serve a whole
// RunBatch sweep — per-source metrics must equal fresh single-run sessions
// (buffer reuse cannot leak state between runs). A second session runs the
// sources in reverse order: no metric may depend on which origin a session
// ran first (the termination analysis's two-sweep bound is per graph).
func TestSessionReuseAcrossBatch(t *testing.T) {
	g := gen.MustBuild("randnonbipartite:n=36,p=0.09", 7)
	specs := []string{"coverage", "termination", "bipartite"}
	sources := make([]graph.NodeID, g.N())
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}
	reversed := slices.Clone(sources)
	slices.Reverse(reversed)
	batch := func(sources []graph.NodeID) map[graph.NodeID]analysis.Metrics {
		shared, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Fast), sim.WithAnalysis(specs...))
		if err != nil {
			t.Fatal(err)
		}
		results, err := shared.RunBatch(context.Background(), sources)
		if err != nil {
			t.Fatal(err)
		}
		out := map[graph.NodeID]analysis.Metrics{}
		for i, src := range sources {
			out[src] = results[i].Metrics
		}
		return out
	}
	forward, backward := batch(sources), batch(reversed)
	for _, src := range sources {
		fresh, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Fast),
			sim.WithOrigins(src), sim.WithAnalysis(specs...))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for order, reused := range map[string]analysis.Metrics{"forward": forward[src], "reversed": backward[src]} {
			if len(res.Metrics) != len(reused) {
				t.Fatalf("source %d (%s): metric sets differ: %v vs %v", src, order, reused, res.Metrics)
			}
			for k, v := range res.Metrics {
				if reused[k] != v {
					t.Fatalf("source %d (%s): metric %s = %g reused, %g fresh", src, order, k, reused[k], v)
				}
			}
		}
	}
}
