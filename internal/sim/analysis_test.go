package sim_test

import (
	"context"
	"reflect"
	"testing"

	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// TestAnalysisOnEveryEngine: the engines are trace-equivalent, so the
// streamed analysis metrics must be identical on every synchronous
// substrate — on a traced run with Send-level analyses attached, and on an
// untraced coverage+termination run, which the bitset engine serves from
// frontiers alone.
func TestAnalysisOnEveryEngine(t *testing.T) {
	g := gen.MustBuild("randnonbipartite:n=48,p=0.07", 3)
	for _, tc := range []struct {
		analyses []string
		trace    bool
	}{
		// Traced: a full run, so metrics cover every round on every engine.
		{[]string{"coverage", "termination", "bipartite", "spantree"}, true},
		{[]string{"coverage", "termination"}, false},
	} {
		var want map[string]float64
		for _, kind := range allEngines {
			sess, err := sim.New(g,
				sim.WithProtocol("amnesiac"),
				sim.WithEngine(kind),
				sim.WithOrigins(0),
				sim.WithAnalysis(tc.analyses...),
				sim.WithTrace(tc.trace),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) == 0 {
				t.Fatalf("%v %v: no metrics", kind, tc.analyses)
			}
			if want == nil {
				want = res.Metrics
				continue
			}
			if !reflect.DeepEqual(res.Metrics, want) {
				t.Fatalf("%v %v: metrics diverge:\n%v\nvs sequential\n%v", kind, tc.analyses, res.Metrics, want)
			}
		}
	}
}

// TestAnalysisStopGating: a stop-capable analysis ends the run early when
// it is the only consumer, but a requested trace disables analysis-driven
// stopping so the trace stays complete; a never-ready analysis in the set
// also holds the run open.
func TestAnalysisStopGating(t *testing.T) {
	g := gen.MustBuild("cycle:n=15", 1) // odd cycle: witness well before natural death
	full, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	probe, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(0), sim.WithAnalysis("bipartite"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := probe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Rounds >= ref.Rounds {
		t.Fatalf("bipartite-only run did not stop early: rounds=%d (full %d), stopped=%t",
			res.Rounds, ref.Rounds, res.Stopped)
	}

	traced, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(0),
		sim.WithAnalysis("bipartite"), sim.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	tres, err := traced.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tres.Stopped || tres.Rounds != ref.Rounds || len(tres.Trace) != ref.Rounds {
		t.Fatalf("trace run was truncated: rounds=%d, trace=%d, stopped=%t",
			tres.Rounds, len(tres.Trace), tres.Stopped)
	}

	held, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithOrigins(0),
		sim.WithAnalysis("bipartite", "coverage")) // coverage is never ready
	if err != nil {
		t.Fatal(err)
	}
	hres, err := held.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hres.Stopped || hres.Rounds != ref.Rounds {
		t.Fatalf("coverage did not hold the run open: rounds=%d, stopped=%t", hres.Rounds, hres.Stopped)
	}
	// Both variants agree on the verdict.
	for _, m := range []map[string]float64{res.Metrics, tres.Metrics, hres.Metrics} {
		if m["bipartite.bipartite"] != 0 {
			t.Fatalf("odd cycle judged bipartite: %v", m)
		}
	}
}

// TestAnalysisErrors: bad specs fail at New; origin-arity violations fail
// at Run.
func TestAnalysisErrors(t *testing.T) {
	g := gen.MustBuild("path:n=4", 1)
	if _, err := sim.New(g, sim.WithAnalysis("nosuch")); err == nil {
		t.Fatal("unknown analysis accepted")
	}
	if _, err := sim.New(g, sim.WithAnalysis("quantiles:metric=bogus")); err == nil {
		t.Fatal("bad analysis parameter accepted")
	}
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"),
		sim.WithOrigins(0, 2), sim.WithAnalysis("bipartite"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err == nil {
		t.Fatal("bipartite analysis accepted two origins")
	}
}

// TestAnalysisOnModelEngines: analyses observe the model engines' round
// streams too; the bound metrics stay sync-only but the raw columns are
// populated.
func TestAnalysisOnModelEngines(t *testing.T) {
	g := gen.MustBuild("grid:rows=4,cols=4", 1)
	sess, err := sim.New(g, sim.WithModel("schedule:static"),
		sim.WithAnalysis("coverage", "termination"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["coverage.covered"] != 1 {
		t.Fatalf("static schedule left the grid uncovered: %v", res.Metrics)
	}
	if int(res.Metrics["termination.rounds"]) != res.Rounds {
		t.Fatalf("termination.rounds %v != %d", res.Metrics["termination.rounds"], res.Rounds)
	}
	if _, bound := res.Metrics["termination.boundUpper"]; bound {
		t.Fatal("bound metrics emitted for a non-sync model")
	}
}

// TestBipartiteVerdictSyncOnly: a delay adversary manufactures double
// receipts on bipartite graphs; the bipartite analysis must not turn them
// into a verdict (only the raw witness count is reported for non-sync
// models), and the delayed rounds must not trip the sync cross-check.
func TestBipartiteVerdictSyncOnly(t *testing.T) {
	for _, spec := range []string{"adversary:collision", "adversary:uniform:extra=2"} {
		sess, err := sim.New(gen.MustBuild("cycle:n=6", 1), sim.WithModel(spec),
			sim.WithMaxRounds(4096), sim.WithAnalysis("bipartite"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, ok := res.Metrics["bipartite.bipartite"]; ok {
			t.Fatalf("%s: verdict emitted for a non-sync model: %v", spec, res.Metrics)
		}
		if _, ok := res.Metrics["bipartite.lateRounds"]; ok {
			t.Fatalf("%s: lateRounds emitted for a non-sync model", spec)
		}
	}
}

// TestSpanTreeDepthUnderDelay: tree depth is parent-depth+1, not the
// delivery round, so delay adversaries stretch rounds without corrupting
// the tree artifact.
func TestSpanTreeDepthUnderDelay(t *testing.T) {
	g := gen.MustBuild("path:n=4", 1)
	sess, err := sim.New(g, sim.WithModel("adversary:uniform:extra=2"),
		sim.WithAnalysis("spantree"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Metrics["spantree.depth"]); got != 3 {
		t.Fatalf("depth %d under delay, want the tree depth 3", got)
	}
	tree, ok := sess.SpanTree()
	if !ok {
		t.Fatal("no tree")
	}
	if err := tree.Validate(g); err != nil {
		t.Fatal(err)
	}
}
