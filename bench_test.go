// Benchmarks regenerating the paper's evaluation artifacts, one benchmark
// per figure/theorem (DESIGN.md §3 maps IDs to experiments), plus substrate
// scaling benchmarks. Custom metrics report the quantities the paper talks
// about: rounds to termination and total messages.
//
//	go test -bench=. -benchmem
package amnesiacflood_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"amnesiacflood/internal/analysis/analysistest"
	"amnesiacflood/internal/async"
	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/dynamic"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/experiments"
	"amnesiacflood/internal/faults"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/model/modeltest"
	"amnesiacflood/internal/multiflood"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/termdetect"
	"amnesiacflood/internal/theory"
)

// benchEngines is the engine dimension of the substrate benchmarks: the
// sequential reference, the zero-allocation CSR engine, and its sharded
// parallel mode. The channel engine is benchmarked separately (E10 only);
// it exists to demonstrate concurrency, not to be fast.
var benchEngines = []sim.EngineKind{sim.Sequential, sim.Fast, sim.Parallel}

// benchReport runs a traced flood through the sim façade and analyses it,
// the per-iteration body of the engine-parameterised benchmarks. A session
// is built once per benchmark, so the fast engines amortise their arenas
// exactly as a serving deployment would.
func benchReport(b *testing.B, sess *sim.Session, g *graph.Graph, source graph.NodeID) *core.Report {
	b.Helper()
	res, err := sess.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return core.Analyze(g, []graph.NodeID{source}, res)
}

// newBenchSession builds the traced amnesiac session for one engine.
func newBenchSession(b *testing.B, g *graph.Graph, kind sim.EngineKind, source graph.NodeID) *sim.Session {
	b.Helper()
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithEngine(kind),
		sim.WithOrigins(source),
		sim.WithTrace(true),
	)
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// benchFlood runs AF once per iteration on the given engine and reports
// rounds/messages metrics.
func benchFlood(b *testing.B, g *graph.Graph, kind sim.EngineKind, source graph.NodeID) {
	b.Helper()
	sess := newBenchSession(b, g, kind, source)
	var rep *core.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = benchReport(b, sess, g, source)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Rounds()), "rounds")
	b.ReportMetric(float64(rep.TotalMessages()), "messages")
}

// E1: Figure 1 — the 4-node line from b.
func BenchmarkFig1Line(b *testing.B) {
	benchFlood(b, gen.Path(4), sim.Sequential, 1)
}

// E2: Figure 2 — the triangle from b.
func BenchmarkFig2Triangle(b *testing.B) {
	benchFlood(b, gen.Cycle(3), sim.Sequential, 1)
}

// E3: Figure 3 — the even cycle C6.
func BenchmarkFig3EvenCycle(b *testing.B) {
	benchFlood(b, gen.Cycle(6), sim.Sequential, 0)
}

// E4: Lemma 2.1 / Corollary 2.2 — bipartite families at increasing sizes.
// rounds must equal e(source) <= D for every series point. Sub-benchmarks
// are named by the canonical graph spec, so BENCH_<date>.json rows are
// attributable to exact instances.
func BenchmarkBipartiteTermination(b *testing.B) {
	families := []func(n int) string{
		func(n int) string { return fmt.Sprintf("path:n=%d", n) },
		func(n int) string { return fmt.Sprintf("cycle:n=%d", 2*(n/2)) },
		func(n int) string { return fmt.Sprintf("grid:rows=%d,cols=32", n/32) },
		func(n int) string {
			d := 0
			for 1<<d < n {
				d++
			}
			return fmt.Sprintf("hypercube:d=%d", d)
		},
	}
	for _, fam := range families {
		for _, n := range []int{64, 512, 4096} {
			g := gen.MustBuild(fam(n), 1)
			ecc := algo.Eccentricity(g, 0)
			for _, kind := range benchEngines {
				b.Run(fmt.Sprintf("%s/%s", g.Name(), kind), func(b *testing.B) {
					sess := newBenchSession(b, g, kind, 0)
					var rep *core.Report
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rep = benchReport(b, sess, g, 0)
					}
					b.StopTimer()
					if rep.Rounds() != ecc {
						b.Fatalf("rounds %d != e(source) %d (Lemma 2.1)", rep.Rounds(), ecc)
					}
					b.ReportMetric(float64(rep.Rounds()), "rounds")
					b.ReportMetric(float64(rep.TotalMessages()), "messages")
				})
			}
		}
	}
}

// E5: Theorems 3.1 + 3.3 — non-bipartite families; rounds must stay within
// 2D+1.
func BenchmarkNonBipartiteTermination(b *testing.B) {
	specs := []string{
		"cycle:n=65", "cycle:n=513", "cycle:n=4097",
		"complete:n=64", "wheel:n=257",
		"lollipop:k=5,path=128", "torus:rows=5,cols=13",
	}
	instances := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		instances[i] = gen.MustBuild(spec, 1)
	}
	for _, g := range instances {
		diam := algo.Diameter(g)
		for _, kind := range benchEngines {
			b.Run(g.Name()+"/"+kind.String(), func(b *testing.B) {
				sess := newBenchSession(b, g, kind, 0)
				var rep *core.Report
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep = benchReport(b, sess, g, 0)
				}
				b.StopTimer()
				if rep.Rounds() > 2*diam+1 {
					b.Fatalf("rounds %d > 2D+1 = %d (Theorem 3.3)", rep.Rounds(), 2*diam+1)
				}
				b.ReportMetric(float64(rep.Rounds()), "rounds")
				b.ReportMetric(float64(rep.TotalMessages()), "messages")
			})
		}
	}
}

// E6: Figure 4 / Lemma 3.2 — cost of reconstructing round-sets and checking
// the odd-gap invariant on a non-trivial run.
func BenchmarkRoundSetAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.RandomNonBipartite(512, 0.01, rng)
	rep, err := core.Run(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := theory.CheckOddGapInvariant(rep); err != nil {
			b.Fatal(err)
		}
	}
}

// E7: Figure 5 — asynchronous runs to their certificate (odd cycles under
// the delaying adversary) or to termination (control adversary), through
// the sim façade's model axis. Sessions are reused, so the model engine
// amortises its packed arenas exactly as a serving deployment would.
func BenchmarkAsyncAdversary(b *testing.B) {
	cases := []struct {
		name  string
		g     *graph.Graph
		model string
		want  engine.Outcome
	}{
		{"triangle/collision", gen.Cycle(3), "adversary:collision", engine.OutcomeCycle},
		{"C15/collision", gen.Cycle(15), "adversary:collision", engine.OutcomeCycle},
		{"C101/collision", gen.Cycle(101), "adversary:collision", engine.OutcomeCycle},
		{"triangle/sync", gen.Cycle(3), "adversary:sync", engine.OutcomeTerminated},
		{"tree/collision", gen.CompleteBinaryTree(7), "adversary:collision", engine.OutcomeTerminated},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sess, err := sim.New(tc.g, sim.WithModel(tc.model))
			if err != nil {
				b.Fatal(err)
			}
			var res engine.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = sess.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if res.Outcome != tc.want {
				b.Fatalf("outcome %v, want %v", res.Outcome, tc.want)
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkModels measures the certificate path of the two model engines
// against the frozen string-key baseline they replaced: identical runs to
// the same certified cycle, with the configuration detector as the only
// difference that matters. allocs/op is the headline number — the packed
// detector does arithmetic on reused arenas where the baseline serialised
// every configuration to a sorted, joined string.
func BenchmarkModels(b *testing.B) {
	asyncCycle := gen.Cycle(101)
	b.Run("async/packed/C101", func(b *testing.B) {
		eng := model.NewAsync(asyncCycle, async.CollisionDelayer{})
		var res engine.Result
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = eng.Run(context.Background(), []graph.NodeID{0}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Outcome != engine.OutcomeCycle {
			b.Fatalf("outcome %v", res.Outcome)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	})
	b.Run("async/stringkey/C101", func(b *testing.B) {
		var res modeltest.AsyncResult
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = modeltest.AsyncRun(asyncCycle, async.CollisionDelayer{}, 0, false, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Outcome != engine.OutcomeCycle {
			b.Fatalf("outcome %v", res.Outcome)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	})
	dynCycle := gen.Cycle(64)
	dynSched := dynamic.OutageOnce{Round: 1, Edge: graph.Edge{U: 0, V: 63}}
	b.Run("dynamic/packed/outageC64", func(b *testing.B) {
		eng := model.NewDynamic(dynCycle, dynSched)
		var res engine.Result
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = eng.Run(context.Background(), []graph.NodeID{0}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Outcome != engine.OutcomeCycle {
			b.Fatalf("outcome %v", res.Outcome)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	})
	b.Run("dynamic/stringkey/outageC64", func(b *testing.B) {
		var res modeltest.DynamicResult
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = modeltest.DynamicRun(dynCycle, dynSched, 0, false, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Outcome != engine.OutcomeCycle {
			b.Fatalf("outcome %v", res.Outcome)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	})
}

// BenchmarkAnalyses measures the streaming analysis registry against the
// frozen post-hoc path it replaces: coverage and bipartiteness computed
// round by round inside the run (sim.WithAnalysis, reusable buffers, no
// trace) versus materialising the full trace and re-walking it through
// core.Analyze / analysistest.DetectFromReport. allocs/op is the headline
// number — the post-hoc path pays one slice per round for the trace plus
// the re-walk, the streaming path reuses one session-owned buffer set.
func BenchmarkAnalyses(b *testing.B) {
	g := gen.MustBuild("randnonbipartite:n=1024,p=0.005", 2)
	stream := func(b *testing.B, analyses ...string) *sim.Session {
		b.Helper()
		sess, err := sim.New(g,
			sim.WithProtocol("amnesiac"),
			sim.WithEngine(sim.Fast),
			sim.WithOrigins(0),
			sim.WithAnalysis(analyses...),
		)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	b.Run("coverage/streaming", func(b *testing.B) {
		sess := stream(b, "coverage")
		var res engine.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sess.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Metrics["coverage.covered"] != 1 {
			b.Fatal("uncovered")
		}
	})
	b.Run("coverage/posthoc", func(b *testing.B) {
		sess := newBenchSession(b, g, sim.Fast, 0)
		var rep *core.Report
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep = benchReport(b, sess, g, 0)
		}
		b.StopTimer()
		if !rep.Covered() {
			b.Fatal("uncovered")
		}
	})
	b.Run("bipartite/streaming", func(b *testing.B) {
		sess := stream(b, "bipartite")
		var res engine.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sess.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Metrics["bipartite.bipartite"] != 0 {
			b.Fatal("non-bipartite instance judged bipartite")
		}
	})
	b.Run("bipartite/posthoc", func(b *testing.B) {
		sess := newBenchSession(b, g, sim.Fast, 0)
		var verdict analysistest.Verdict
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := benchReport(b, sess, g, 0)
			var err error
			verdict, err = analysistest.DetectFromReport(g, 0, rep)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if verdict.Bipartite {
			b.Fatal("non-bipartite instance judged bipartite")
		}
	})
}

// E8: amnesiac vs classic flooding on the same instances — the message and
// round overhead of amnesia.
func BenchmarkClassicComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	instances := []*graph.Graph{
		gen.Cycle(1025),
		gen.Grid(32, 32),
		gen.RandomNonBipartite(1024, 0.005, rng),
	}
	for _, g := range instances {
		b.Run("amnesiac/"+g.Name(), func(b *testing.B) {
			benchFlood(b, g, sim.Sequential, 0)
		})
		b.Run("amnesiacFast/"+g.Name(), func(b *testing.B) {
			benchFlood(b, g, sim.Fast, 0)
		})
		b.Run("classic/"+g.Name(), func(b *testing.B) {
			var res engine.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proto, err := classic.NewFlood(g, 0)
				if err != nil {
					b.Fatal(err)
				}
				res, err = engine.Run(context.Background(), g, proto, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.TotalMessages), "messages")
		})
	}
}

// E9: bipartiteness detection by flooding vs BFS two-colouring ground truth.
func BenchmarkBipartitenessDetection(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.RandomConnected(1024, 0.004, rng)
	b.Run("flood", func(b *testing.B) {
		sess, err := sim.New(g,
			sim.WithProtocol("amnesiac"),
			sim.WithOrigins(0),
			sim.WithAnalysis("bipartite"),
			sim.WithAnalysisStop(false),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("twoColor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			algo.TwoColor(g)
		}
	})
}

// E10: the two synchronous engines on the same workload — the cost of real
// goroutines and channels per round.
func BenchmarkEngines(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := gen.RandomNonBipartite(256, 0.02, rng)
	flood, err := core.NewFlood(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("channels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chanengine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fastengine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastReused", func(b *testing.B) {
		e := fastengine.New(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastParallel", func(b *testing.B) {
		e := fastengine.New(g).Parallel(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), flood, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E11: double-cover prediction vs simulation — the analytical shortcut
// must beat the simulator it predicts.
func BenchmarkDoubleCoverPrediction(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := gen.RandomNonBipartite(1024, 0.004, rng)
	b.Run("predict", func(b *testing.B) {
		b.ReportAllocs()
		var pred doublecover.Prediction
		for i := 0; i < b.N; i++ {
			pred = doublecover.Predict(g, 0)
		}
		b.ReportMetric(float64(pred.Rounds), "rounds")
	})
	b.Run("simulate", func(b *testing.B) {
		benchFlood(b, g, sim.Sequential, 0)
	})
	b.Run("simulateFast", func(b *testing.B) {
		benchFlood(b, g, sim.Fast, 0)
	})
}

// E12: fault injection — certificate on the minimal loss case and a lossy
// sweep point.
func BenchmarkFaultInjection(b *testing.B) {
	b.Run("dropOnce/C64", func(b *testing.B) {
		g := gen.Cycle(64)
		inj := faults.AfterRound{Inner: faults.DropOnce{Round: 1, From: 0, To: 63}, Round: 1}
		var res faults.Result
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err = faults.Run(g, inj, faults.Options{}, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		if res.Outcome != faults.CycleDetected {
			b.Fatalf("outcome %v", res.Outcome)
		}
	})
	b.Run("randomLoss/grid16", func(b *testing.B) {
		g := gen.Grid(16, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := faults.Run(g, faults.RandomLoss{P: 0.05, Seed: int64(i)},
				faults.Options{MaxRounds: 256}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E13: multi-source runs at increasing origin counts.
func BenchmarkMultiSource(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := gen.RandomConnected(1024, 0.004, rng)
	for _, k := range []int{1, 4, 16, 64} {
		origins := make([]graph.NodeID, k)
		for i := range origins {
			origins[i] = graph.NodeID(rng.Intn(g.N()))
		}
		b.Run(fmt.Sprintf("origins=%d", k), func(b *testing.B) {
			var rep *core.Report
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err = core.Run(g, origins...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Rounds()), "rounds")
			b.ReportMetric(float64(rep.TotalMessages()), "messages")
		})
	}
}

// E14: dynamic schedules, one terminating and one certified-looping,
// through the sim façade's model axis with session reuse.
func BenchmarkDynamicNetworks(b *testing.B) {
	cases := []struct {
		name  string
		g     *graph.Graph
		model string
		want  engine.Outcome
	}{
		{"static/grid16", gen.Grid(16, 16), "schedule:static", engine.OutcomeTerminated},
		{"outage/C64", gen.Cycle(64), "schedule:outage:round=1,u=0,v=63", engine.OutcomeCycle},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sess, err := sim.New(tc.g, sim.WithModel(tc.model))
			if err != nil {
				b.Fatal(err)
			}
			var res engine.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = sess.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if res.Outcome != tc.want {
				b.Fatalf("outcome %v, want %v", res.Outcome, tc.want)
			}
		})
	}
}

// E15: one loss-curve point (20 runs at p = 0.1 on the grid).
func BenchmarkLossCurvePoint(b *testing.B) {
	g := gen.Grid(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 20; run++ {
			if _, err := faults.Run(g, faults.RandomLoss{P: 0.1, Seed: int64(run)},
				faults.Options{MaxRounds: 256}, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E16: broadcast congestion — k simultaneous floods with load accounting.
func BenchmarkBroadcastLoad(b *testing.B) {
	g := gen.Grid(16, 16)
	origins := make([]graph.NodeID, 8)
	for i := range origins {
		origins[i] = graph.NodeID(i * 31)
	}
	var res multiflood.Result
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err = multiflood.Run(g, multiflood.AllFromOrigins(origins))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MaxEdgeLoad), "peakEdgeLoad")
	b.ReportMetric(float64(res.TotalMessages), "messages")
}

// E17: classic flooding with Dijkstra-Scholten termination detection — the
// cost of knowing the flood is over.
func BenchmarkTerminationDetection(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := gen.RandomConnected(512, 0.008, rng)
	var res termdetect.Result
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err = termdetect.Run(g, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DetectionRound), "detectionRound")
	b.ReportMetric(float64(res.TotalMessages()), "messages")
}

// E18: wavefront profile extraction (trace post-processing cost).
func BenchmarkWavefrontProfile(b *testing.B) {
	g := gen.Cycle(4097)
	rep, err := core.Run(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, rec := range rep.Result.Trace {
			total += len(rec.Sends)
		}
		if total != rep.TotalMessages() {
			b.Fatal("profile sum mismatch")
		}
	}
}

// Substrate scaling: AF cost as the graph grows (series for the "shape" of
// round/message growth — linear in n on cycles, constant rounds on
// hypercubes).
func BenchmarkFloodScaling(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		g := gen.MustBuild(fmt.Sprintf("cycle:n=%d", n), 1)
		for _, kind := range benchEngines {
			b.Run(fmt.Sprintf("%s/%s", g.Name(), kind), func(b *testing.B) {
				benchFlood(b, g, kind, 0)
			})
		}
	}
	for _, d := range []int{8, 11, 14} {
		g := gen.MustBuild(fmt.Sprintf("hypercube:d=%d", d), 1)
		for _, kind := range benchEngines {
			b.Run(fmt.Sprintf("%s/%s", g.Name(), kind), func(b *testing.B) {
				benchFlood(b, g, kind, 0)
			})
		}
	}
}

// Engine scaling sweep: the arena-reusing engines (CSR fast, its sharded
// mode, and the bitset frontier engine) across three shapes and three sizes
// up to a million nodes. The shapes stress different regimes: the path is
// pure per-round overhead (a two-node frontier for n-1 rounds), the grid a
// steadily growing wavefront, and the sparse gnp instance a few rounds of
// near-total frontier — the regime where the bitset engine's word-parallel
// OR/AND-NOT sweep replaces per-message work with per-64-edge work.
// Sessions are untraced, so ns/op is the round-kernel cost alone.
func BenchmarkEngineScale(b *testing.B) {
	scaleEngines := []sim.EngineKind{sim.Fast, sim.Parallel, sim.Bitset}
	specs := func(n, side int) []string {
		return []string{
			fmt.Sprintf("path:n=%d", n),
			fmt.Sprintf("grid:rows=%d,cols=%d", side, side),
			// Expected degree 64 — a dense frontier: nearly every node sends
			// on nearly every round, so message volume scales linearly with n
			// and the round kernel dominates.
			fmt.Sprintf("gnp:n=%d,p=%g", n, 64/float64(n)),
		}
	}
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		side := 1
		for side*side < n {
			side *= 2
		}
		for _, spec := range specs(n, side) {
			for _, kind := range scaleEngines {
				// Graphs are built inside the sub-benchmark so filtered runs
				// (-bench '.../n=1048576') never pay for the instances they
				// skip.
				b.Run(fmt.Sprintf("%s/%s", spec, kind), func(b *testing.B) {
					g := gen.MustBuild(spec, 1)
					sess, err := sim.New(g,
						sim.WithProtocol("amnesiac"),
						sim.WithEngine(kind),
						sim.WithOrigins(0),
					)
					if err != nil {
						b.Fatal(err)
					}
					// One untimed run amortises engine setup (relabeling,
					// arena growth), so ns/op is the steady-state round
					// kernel every engine settles into under session reuse.
					if _, err := sess.Run(context.Background()); err != nil {
						b.Fatal(err)
					}
					var res engine.Result
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err = sess.Run(context.Background())
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(res.Rounds), "rounds")
					b.ReportMetric(float64(res.TotalMessages), "messages")
				})
			}
		}
	}
}

// Reference-engine round loop: the sequential engine's per-round grouping
// (re-sort of the normalised send set, no map, no per-batch slices) on
// workloads where grouping dominates. Dense rounds (clique) maximise sends
// per receiver; the grid maximises distinct receivers per round. Allocation
// counts are the regression signal: the former map-based grouping allocated
// per receiver per round.
func BenchmarkSequentialGrouping(b *testing.B) {
	for _, g := range []*graph.Graph{gen.Complete(256), gen.Grid(64, 64)} {
		flood := core.MustNewFlood(g, 0)
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(context.Background(), g, flood, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Full experiment suite end-to-end (what cmd/afbench runs), as a single
// benchmark for regression tracking.
func BenchmarkExperimentSuite(b *testing.B) {
	cfg := experiments.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, exp := range experiments.All() {
			if _, err := exp.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
