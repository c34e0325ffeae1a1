package model_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/async"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/dynamic"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/model/modeltest"
	"amnesiacflood/internal/trace"
)

func edge(u, v graph.NodeID) graph.Edge { return graph.Edge{U: u, V: v} }

func opts(maxRounds int, traced bool) engine.Options {
	return engine.Options{MaxRounds: maxRounds, Trace: traced}
}

func origins(os ...graph.NodeID) []graph.NodeID { return os }

// observeCoverage attaches the streaming coverage analysis to o for a run
// from the given origins.
func observeCoverage(t *testing.T, g *graph.Graph, o *engine.Options, origins ...graph.NodeID) *analysis.Coverage {
	t.Helper()
	a, err := analysis.Build("coverage", analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(origins); err != nil {
		t.Fatal(err)
	}
	o.Observer = a
	return a.(*analysis.Coverage)
}

// covered reports whether v holds or has held M: an origin, or a node that
// received it.
func covered(cov *analysis.Coverage, v graph.NodeID) bool {
	return cov.ReceiveCounts()[v] > 0 || slices.Contains(cov.Origins(), v)
}

// coveredCount counts the nodes that hold or have held M.
func coveredCount(cov *analysis.Coverage) int {
	n := 0
	for v := range cov.ReceiveCounts() {
		if covered(cov, graph.NodeID(v)) {
			n++
		}
	}
	return n
}

// asyncCase is one instance of the async differential corpus.
type asyncCase struct {
	name    string
	graph   string
	seed    int64
	model   string // model spec; the seed also feeds random adversaries
	origins []graph.NodeID
}

// asyncCorpus crosses the paper's topologies with every adversary family —
// the seeded corpus the packed engine must reproduce the legacy string-key
// runner on, outcome for outcome and trace for trace.
var asyncCorpus = []asyncCase{
	{"fig5-triangle", "cycle:n=3", 1, "adversary:collision", origins(1)},
	{"triangle-sync", "cycle:n=3", 1, "adversary:sync", origins(1)},
	{"triangle-uniform", "cycle:n=3", 1, "adversary:uniform:extra=2", origins(0)},
	{"triangle-edge", "cycle:n=3", 1, "adversary:edge:u=1,v=2,extra=1", origins(1)},
	{"c5-collision", "cycle:n=5", 1, "adversary:collision", origins(0)},
	{"c6-collision", "cycle:n=6", 1, "adversary:collision", origins(0)},
	{"c7-collision", "cycle:n=7", 1, "adversary:collision", origins(2)},
	{"c9-uniform", "cycle:n=9", 1, "adversary:uniform:extra=2", origins(0)},
	{"c9-edge", "cycle:n=9", 1, "adversary:edge:u=0,v=8,extra=1", origins(0)},
	{"path8-collision", "path:n=8", 1, "adversary:collision", origins(0)},
	{"path8-hold", "path:n=8", 1, "adversary:hold:node=3,extra=2", origins(0)},
	{"path7-multi", "path:n=7", 1, "adversary:sync", origins(0, 6)},
	{"star-collision", "star:n=9", 1, "adversary:collision", origins(0)},
	{"bintree-collision", "bintree:levels=4", 1, "adversary:collision", origins(0)},
	{"bintree-random", "bintree:levels=4", 11, "adversary:random:max=3", origins(0)},
	{"k4-collision", "complete:n=4", 1, "adversary:collision", origins(0)},
	{"k5-hold", "complete:n=5", 1, "adversary:hold:node=2,extra=1", origins(1)},
	{"grid-collision", "grid:rows=4,cols=4", 1, "adversary:collision", origins(0)},
	{"petersen-collision", "petersen", 1, "adversary:collision", origins(0)},
	{"wheel-collision", "wheel:n=8", 1, "adversary:collision", origins(3)},
	{"randtree-random", "tree:n=24", 5, "adversary:random:max=2", origins(0)},
	{"randconn-collision", "randconnected:n=20,p=0.15", 7, "adversary:collision", origins(0)},
	{"randconn-random", "randconnected:n=16,p=0.2", 9, "adversary:random:max=3", origins(0)},
	{"gnp-uniform", "randconnected:n=18,p=0.18", 13, "adversary:uniform:extra=1", origins(4)},
	{"c3-multi", "cycle:n=3", 1, "adversary:collision", origins(0, 1)},
}

// TestAsyncEngineMatchesLegacyRunner is the differential gate: on every
// corpus instance the packed engine must reproduce the legacy string-key
// runner's outcome, certificate (cycle start and length), round count,
// delivery count, and full trace.
func TestAsyncEngineMatchesLegacyRunner(t *testing.T) {
	if len(asyncCorpus) < 20 {
		t.Fatalf("corpus has %d instances, want >= 20", len(asyncCorpus))
	}
	const maxRounds = 4096
	for _, tc := range asyncCorpus {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustBuild(tc.graph, tc.seed)
			// Two independently built adversaries: random adversaries own
			// rng state, so the engines must not share one.
			legacyAdv := model.MustBuild(tc.model, tc.seed).Adversary
			packedAdv := model.MustBuild(tc.model, tc.seed).Adversary

			want, err := modeltest.AsyncRun(g, legacyAdv, maxRounds, true, tc.origins...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := model.NewAsync(g, packedAdv).Run(context.Background(), tc.origins, opts(maxRounds, true))
			if err != nil {
				t.Fatal(err)
			}

			if got.Outcome != want.Outcome {
				t.Fatalf("outcome = %v, legacy %v", got.Outcome, want.Outcome)
			}
			if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages {
				t.Fatalf("rounds/messages = %d/%d, legacy %d/%d", got.Rounds, got.TotalMessages, want.Rounds, want.TotalMessages)
			}
			if want.Outcome == engine.OutcomeCycle {
				if got.Certificate == nil {
					t.Fatal("legacy certified non-termination, packed engine returned no certificate")
				}
				if got.Certificate.Start != want.CycleStart || got.Certificate.Length != want.CycleLength {
					t.Fatalf("certificate = start %d len %d, legacy start %d len %d",
						got.Certificate.Start, got.Certificate.Length, want.CycleStart, want.CycleLength)
				}
			} else if got.Certificate != nil {
				t.Fatalf("unexpected certificate %+v", got.Certificate)
			}
			if !engine.EqualTraces(got.Trace, want.Trace) {
				t.Fatal("packed trace differs from the legacy runner's")
			}
		})
	}
}

// dynamicCase is one instance of the dynamic differential corpus.
type dynamicCase struct {
	name    string
	graph   string
	seed    int64
	model   string
	origins []graph.NodeID
}

var dynamicCorpus = []dynamicCase{
	{"c4-static", "cycle:n=4", 1, "schedule:static", origins(0)},
	{"c4-outage", "cycle:n=4", 1, "schedule:outage:round=1,u=0,v=3", origins(0)},
	{"c6-outage", "cycle:n=6", 1, "schedule:outage:round=2,u=2,v=3", origins(0)},
	{"c7-outage", "cycle:n=7", 1, "schedule:outage:round=1,u=0,v=6", origins(0)},
	{"bintree-outage", "bintree:levels=4", 1, "schedule:outage:round=1,u=0,v=1", origins(0)},
	{"path4-blink-aligned", "path:n=4", 1, "schedule:blink:u=1,v=2,period=2,phase=0", origins(0)},
	{"path4-blink-misaligned", "path:n=4", 1, "schedule:blink:u=1,v=2,period=2,phase=1", origins(0)},
	{"c8-blink", "cycle:n=8", 1, "schedule:blink:u=0,v=7,period=3,phase=1", origins(0)},
	{"c6-alternating", "cycle:n=6", 1, "schedule:alternating", origins(0)},
	{"c7-alternating", "cycle:n=7", 1, "schedule:alternating", origins(0)},
	{"grid-alternating", "grid:rows=4,cols=4", 1, "schedule:alternating", origins(0)},
	{"k6-alternating", "complete:n=6", 1, "schedule:alternating", origins(0)},
	{"petersen-alternating", "petersen", 1, "schedule:alternating", origins(0)},
	{"grid55-blink", "grid:rows=5,cols=5", 1, "schedule:blink:u=0,v=1,period=3,phase=0", origins(0)},
	{"c10-static-multi", "cycle:n=10", 1, "schedule:static", origins(0, 5)},
	{"star-outage", "star:n=9", 1, "schedule:outage:round=1,u=0,v=4", origins(4)},
	{"wheel-alternating", "wheel:n=9", 1, "schedule:alternating", origins(2)},
	{"randconn-static", "randconnected:n=24,p=0.12", 3, "schedule:static", origins(0)},
	{"randconn-outage", "randconnected:n=20,p=0.15", 5, "schedule:outage:round=2,u=0,v=1", origins(0)},
	{"randtree-blink", "tree:n=20", 7, "schedule:blink:u=0,v=1,period=2,phase=1", origins(0)},
	{"hypercube-alternating", "hypercube:d=4", 1, "schedule:alternating", origins(0)},
}

// TestDynamicEngineMatchesLegacyRunner mirrors the async differential gate
// for the dynamic model, additionally comparing loss and coverage.
func TestDynamicEngineMatchesLegacyRunner(t *testing.T) {
	if len(dynamicCorpus) < 20 {
		t.Fatalf("corpus has %d instances, want >= 20", len(dynamicCorpus))
	}
	const maxRounds = 4096
	for _, tc := range dynamicCorpus {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustBuild(tc.graph, tc.seed)
			sched := model.MustBuild(tc.model, tc.seed).Schedule

			want, err := modeltest.DynamicRun(g, sched, maxRounds, true, tc.origins...)
			if err != nil {
				t.Fatal(err)
			}
			e := model.NewDynamic(g, sched)
			o := opts(maxRounds, true)
			cov := observeCoverage(t, g, &o, tc.origins...)
			got, err := e.Run(context.Background(), tc.origins, o)
			if err != nil {
				t.Fatal(err)
			}

			if got.Outcome != want.Outcome {
				t.Fatalf("outcome = %v, legacy %v", got.Outcome, want.Outcome)
			}
			if got.Rounds != want.Rounds || got.TotalMessages != want.Delivered || got.Lost != want.Lost {
				t.Fatalf("rounds/delivered/lost = %d/%d/%d, legacy %d/%d/%d",
					got.Rounds, got.TotalMessages, got.Lost, want.Rounds, want.Delivered, want.Lost)
			}
			if want.Outcome == engine.OutcomeCycle {
				if got.Certificate == nil || got.Certificate.Start != want.CycleStart || got.Certificate.Length != want.CycleLength {
					t.Fatalf("certificate = %+v, legacy start %d len %d", got.Certificate, want.CycleStart, want.CycleLength)
				}
			}
			if !engine.EqualTraces(got.Trace, want.Trace) {
				t.Fatal("packed trace differs from the legacy runner's")
			}
			if got := coveredCount(cov); got != want.CoverageCount() {
				t.Fatalf("coverage = %d, legacy %d", got, want.CoverageCount())
			}
			for v := 0; v < g.N(); v++ {
				if covered(cov, graph.NodeID(v)) != want.Covered[v] {
					t.Fatalf("coverage of node %d diverged", v)
				}
			}
		})
	}
}

// TestFigure5TriangleCertificate pins the paper's Figure 5 schedule: the
// collision delayer on the triangle from b loops with the exact published
// rounds, and the certificate names the exact cycle.
func TestFigure5TriangleCertificate(t *testing.T) {
	e := model.NewAsync(gen.Cycle(3), async.CollisionDelayer{})
	res, err := e.Run(context.Background(), origins(1), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeCycle {
		t.Fatalf("outcome = %v, want OutcomeCycle", res.Outcome)
	}
	if res.Certificate == nil || res.Certificate.Start != 2 || res.Certificate.Length != 4 {
		t.Fatalf("certificate = %+v, want start 2 len 4", res.Certificate)
	}
	var got []string
	for _, rec := range res.Trace {
		var edges []string
		for _, s := range rec.Sends {
			edges = append(edges, trace.Letters(s.From)+">"+trace.Letters(s.To))
		}
		got = append(got, strings.Join(edges, " "))
	}
	want := []string{
		"b>a b>c",
		"a>c c>a",
		"a>b",     // c's message to b held back
		"b>c c>b", // b answers a; c's delayed message lands
		"b>a",     // c's next message delayed again
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestCollisionDelayerAcrossTopologies ports the historical behavioural
// suite: odd and even cycles certify, trees terminate under every
// adversary tried.
func TestCollisionDelayerAcrossTopologies(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 11} {
		res, err := model.NewAsync(gen.Cycle(n), async.CollisionDelayer{}).
			Run(context.Background(), origins(0), opts(0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != engine.OutcomeCycle {
			t.Errorf("C%d: outcome = %v, want OutcomeCycle", n, res.Outcome)
		}
	}
	for _, spec := range []string{"path:n=9", "star:n=8", "bintree:levels=4", "tree:n=40"} {
		g := gen.MustBuild(spec, 2)
		res, err := model.NewAsync(g, async.CollisionDelayer{}).
			Run(context.Background(), origins(0), opts(0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != engine.OutcomeTerminated {
			t.Errorf("%s: outcome = %v, want OutcomeTerminated", g, res.Outcome)
		}
	}
}

// TestUniformDelayerPreservesTermination: uniform delay stretches the
// synchronous schedule without reordering anything.
func TestUniformDelayerPreservesTermination(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := gen.MustBuild("randconnected:n=20,p=0.12", seed)
		src := graph.NodeID(int(seed) % g.N())
		extra := int(seed) % 4
		res, err := model.NewAsync(g, async.UniformDelayer{Extra: extra}).
			Run(context.Background(), origins(src), opts(0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != engine.OutcomeTerminated {
			t.Fatalf("seed %d: outcome = %v", seed, res.Outcome)
		}
		rep, err := core.Run(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalMessages != rep.TotalMessages() {
			t.Fatalf("seed %d: messages %d != synchronous %d", seed, res.TotalMessages, rep.TotalMessages())
		}
		if res.Rounds != rep.Rounds()*(extra+1) {
			t.Fatalf("seed %d: rounds %d != stretched %d", seed, res.Rounds, rep.Rounds()*(extra+1))
		}
	}
}

// TestEdgeDelayerCanAccelerate pins the counter-intuitive control: slowing
// one triangle edge merges wavefronts and terminates FASTER than the
// synchronous 3 rounds.
func TestEdgeDelayerCanAccelerate(t *testing.T) {
	res, err := model.NewAsync(gen.Cycle(3), async.EdgeDelayer{Edge: edge(1, 2), Extra: 1}).
		Run(context.Background(), origins(1), opts(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || res.Rounds != 2 {
		t.Fatalf("run = %+v, want termination in 2 rounds", res)
	}
}

// TestRoundLimitOutcome: with certificates out of reach the limit fires as
// an outcome, not an error.
func TestRoundLimitOutcome(t *testing.T) {
	res, err := model.NewAsync(gen.Cycle(3), async.CollisionDelayer{}).
		Run(context.Background(), origins(0), opts(3, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeRoundLimit {
		t.Fatalf("outcome = %v, want OutcomeRoundLimit", res.Outcome)
	}
	if res.Terminated {
		t.Error("round-limited run reported Terminated")
	}
}

// TestRandomAdversaryNeverCertifies: non-deterministic adversaries must not
// claim cycle certificates.
func TestRandomAdversaryNeverCertifies(t *testing.T) {
	res, err := model.NewAsync(gen.Cycle(3), async.NewRandomAdversary(7, 3)).
		Run(context.Background(), origins(0), opts(64, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == engine.OutcomeCycle {
		t.Fatal("random adversary produced a cycle certificate")
	}
}

// buggyAdversary writes malformed delays to exercise sanitisation.
type buggyAdversary struct{}

func (buggyAdversary) Name() string { return "buggy" }
func (buggyAdversary) Delays(batch []graph.Edge, _ model.ConfigView, delays []int) {
	for i := range delays {
		delays[i] = -5
	}
}
func (buggyAdversary) Deterministic() bool { return true }

func TestBuggyAdversarySanitized(t *testing.T) {
	res, err := model.NewAsync(gen.Path(5), buggyAdversary{}).
		Run(context.Background(), origins(0), opts(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || res.Rounds != 4 {
		t.Fatalf("buggy adversary run = %+v, want terminated in 4 rounds", res)
	}
}

// spyAdversary delays the second message of every batch and records views.
type spyAdversary struct {
	onView func(model.ConfigView)
}

func (s *spyAdversary) Name() string { return "spy" }
func (s *spyAdversary) Delays(batch []graph.Edge, view model.ConfigView, delays []int) {
	if s.onView != nil {
		s.onView(view)
	}
	if len(delays) > 1 {
		delays[1] = 1
	}
}
func (s *spyAdversary) Deterministic() bool { return true }

// TestAdversaryViewRelativeDelays: the view must expose in-flight messages
// with delays relative to the current round, never absolute rounds, and
// the view length must match.
func TestAdversaryViewRelativeDelays(t *testing.T) {
	spy := &spyAdversary{onView: func(view model.ConfigView) {
		if len(view.InFlight) != len(view.Remaining) {
			t.Errorf("view lengths diverge: %d edges, %d delays", len(view.InFlight), len(view.Remaining))
		}
		for _, rem := range view.Remaining {
			if rem < 1 {
				t.Errorf("non-positive remaining delay %d in view", rem)
			}
		}
	}}
	if _, err := model.NewAsync(gen.Cycle(5), spy).Run(context.Background(), origins(0), opts(64, false)); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncValidation ports the historical argument checks.
func TestAsyncValidation(t *testing.T) {
	e := model.NewAsync(gen.Path(3), async.SyncAdversary{})
	if _, err := e.Run(context.Background(), nil, opts(0, false)); err == nil {
		t.Fatal("run with no origins succeeded")
	}
	if _, err := e.Run(context.Background(), origins(99), opts(0, false)); err == nil {
		t.Fatal("run with invalid origin succeeded")
	}
	d := model.NewDynamic(gen.Path(3), dynamic.Static{})
	if _, err := d.Run(context.Background(), nil, opts(0, false)); err == nil {
		t.Fatal("dynamic run with no origins succeeded")
	}
	if _, err := d.Run(context.Background(), origins(42), opts(0, false)); err == nil {
		t.Fatal("dynamic run with bad origin succeeded")
	}
}

// TestOutageOnEvenCycleBreaksTermination ports the headline dynamic
// finding: one lost crossing on C4 leaves a circulating wavefront.
func TestOutageOnEvenCycleBreaksTermination(t *testing.T) {
	res, err := model.NewDynamic(gen.Cycle(4), dynamic.OutageOnce{Round: 1, Edge: edge(0, 3)}).
		Run(context.Background(), origins(0), opts(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeCycle {
		t.Fatalf("outcome = %v, want OutcomeCycle", res.Outcome)
	}
	if res.Lost != 1 {
		t.Fatalf("lost = %d, want 1", res.Lost)
	}
	if res.Certificate.Length != 4 {
		t.Fatalf("period = %d, want 4 (one lap)", res.Certificate.Length)
	}
}

// TestOutageOnTreeOnlyShrinks: cutting the root edge once severs the left
// subtree; coverage comes from the observer.
func TestOutageOnTreeOnlyShrinks(t *testing.T) {
	g := gen.CompleteBinaryTree(4)
	o := opts(0, false)
	cov := observeCoverage(t, g, &o, 0)
	res, err := model.NewDynamic(g, dynamic.OutageOnce{Round: 1, Edge: edge(0, 1)}).
		Run(context.Background(), origins(0), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := coveredCount(cov); got != 8 {
		t.Fatalf("coverage = %d, want 8", got)
	}
}

// TestBlinkingEdgePhases ports the phase-alignment finding.
func TestBlinkingEdgePhases(t *testing.T) {
	g := gen.Path(4)
	run := func(phase int) (engine.Result, int) {
		o := opts(0, false)
		cov := observeCoverage(t, g, &o, 0)
		res, err := model.NewDynamic(g, dynamic.Blinking{Edge: edge(1, 2), K: 2, Phase: phase}).
			Run(context.Background(), origins(0), o)
		if err != nil {
			t.Fatal(err)
		}
		return res, coveredCount(cov)
	}
	res, cov := run(0)
	if res.Outcome != engine.OutcomeTerminated || cov != 4 {
		t.Fatalf("aligned blinking: %+v coverage %d", res, cov)
	}
	res2, cov2 := run(1)
	if res2.Outcome != engine.OutcomeTerminated || cov2 != 2 {
		t.Fatalf("misaligned blinking: %+v coverage %d", res2, cov2)
	}
}

// TestAlternatingHalvesEndsDeterministically: periodic schedules must
// never hit the round limit — they terminate or certify.
func TestAlternatingHalvesEndsDeterministically(t *testing.T) {
	for _, spec := range []string{"cycle:n=6", "cycle:n=7", "grid:rows=4,cols=4", "complete:n=6"} {
		g := gen.MustBuild(spec, 1)
		res, err := model.NewDynamic(g, dynamic.Alternating{}).
			Run(context.Background(), origins(0), opts(0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == engine.OutcomeRoundLimit {
			t.Fatalf("%s: periodic schedule hit the round limit", g)
		}
	}
}

// TestEnginesReusableAcrossRuns: a session-style reuse of one engine must
// be deterministic run to run (the arenas and detector reset correctly).
func TestEnginesReusableAcrossRuns(t *testing.T) {
	e := model.NewAsync(gen.Cycle(9), async.CollisionDelayer{})
	first, err := e.Run(context.Background(), origins(0), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := e.Run(context.Background(), origins(0), opts(0, true))
		if err != nil {
			t.Fatal(err)
		}
		if again.Outcome != first.Outcome || again.Rounds != first.Rounds ||
			!engine.EqualTraces(again.Trace, first.Trace) {
			t.Fatalf("run %d diverged from the first", i+2)
		}
	}
	d := model.NewDynamic(gen.Grid(5, 5), dynamic.Blinking{Edge: edge(0, 1), K: 3})
	dfirst, err := d.Run(context.Background(), origins(0), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	dagain, err := d.Run(context.Background(), origins(0), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if dagain.Outcome != dfirst.Outcome || !engine.EqualTraces(dagain.Trace, dfirst.Trace) {
		t.Fatal("dynamic engine reuse diverged")
	}
}

// TestModelEngineCancellation: a cancelled context ends both engines with
// the context error.
func TestModelEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := model.NewAsync(gen.Cycle(3), async.CollisionDelayer{}).
		Run(ctx, origins(0), opts(0, false)); err == nil {
		t.Fatal("cancelled async run returned nil error")
	}
	if _, err := model.NewDynamic(gen.Cycle(4), dynamic.OutageOnce{Round: 1, Edge: edge(0, 3)}).
		Run(ctx, origins(0), opts(0, false)); err == nil {
		t.Fatal("cancelled dynamic run returned nil error")
	}
}

// stopAfter stops a run after n observed rounds.
type stopAfter struct{ n int }

func (s *stopAfter) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return rec.Round >= s.n, nil
}

// TestModelEngineObserverStop: observers can end model runs early, and the
// observed prefix matches the full trace byte for byte.
func TestModelEngineObserverStop(t *testing.T) {
	full, err := model.NewAsync(gen.Cycle(9), async.CollisionDelayer{}).
		Run(context.Background(), origins(0), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(0, true)
	o.Observer = &stopAfter{n: 3}
	short, err := model.NewAsync(gen.Cycle(9), async.CollisionDelayer{}).
		Run(context.Background(), origins(0), o)
	if err != nil {
		t.Fatal(err)
	}
	if !short.Stopped || short.Rounds != 3 {
		t.Fatalf("stopped run = %+v", short)
	}
	if !engine.EqualTraces(short.Trace, full.Trace[:len(short.Trace)]) {
		t.Fatal("stopped trace is not a prefix of the full trace")
	}
}

// TestDetectorCollisionSafety drives the detector directly with
// hash-colliding inputs: since verification compares configurations, a
// collision must not fabricate a repeat.
func TestDetectorCollisionSafety(t *testing.T) {
	var d model.Detector
	d.Reset()
	// Feed many distinct single-word configurations; none may repeat.
	for r := 1; r <= 10000; r++ {
		if first, ok := d.Check(r, []uint64{uint64(r)}); ok {
			t.Fatalf("round %d falsely matched round %d", r, first)
		}
	}
	// A genuine repeat is found.
	fresh := []uint64{1 << 40}
	if first, ok := d.Check(10001, fresh); ok {
		t.Fatalf("fresh config falsely matched round %d", first)
	}
	if first, ok := d.Check(10002, fresh); !ok || first != 10001 {
		t.Fatalf("repeat not found: first=%d ok=%t", first, ok)
	}
	// Reset clears history.
	d.Reset()
	if _, ok := d.Check(1, fresh); ok {
		t.Fatal("Reset did not clear the detector")
	}
}
