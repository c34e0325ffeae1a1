package sim_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/sim"
)

// TestWithModelSyncIsDefault: the default session runs the sync model and
// stamps Result.Model and Result.Outcome.
func TestWithModelSyncIsDefault(t *testing.T) {
	sess, err := sim.New(gen.Cycle(6))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Model().IsSync() {
		t.Fatalf("default model = %v, want sync", sess.Model())
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "sync" || res.Outcome != engine.OutcomeTerminated {
		t.Fatalf("res.Model=%q res.Outcome=%v", res.Model, res.Outcome)
	}
}

// TestWithModelAdversary: a non-sync model runs on its own substrate, can
// certify non-termination, and reports the canonical spec.
func TestWithModelAdversary(t *testing.T) {
	sess, err := sim.New(gen.Cycle(3),
		sim.WithModel("Adversary:Collision"), // canonicalises
		sim.WithOrigins(1),
		sim.WithTrace(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Model().String() != "adversary:collision" {
		t.Fatalf("model = %q", sess.Model().String())
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeCycle || res.Certificate == nil {
		t.Fatalf("outcome = %v cert = %+v", res.Outcome, res.Certificate)
	}
	if res.Engine != "async" || res.Model != "adversary:collision" {
		t.Fatalf("engine/model stamps = %q/%q", res.Engine, res.Model)
	}
	if res.Terminated {
		t.Fatal("certified-looping run reported Terminated")
	}
}

// TestWithModelSchedule: dynamic models flow losses into the result.
func TestWithModelSchedule(t *testing.T) {
	sess, err := sim.New(gen.Cycle(4),
		sim.WithModel("schedule:outage:round=1,u=0,v=3"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeCycle || res.Lost != 1 {
		t.Fatalf("outcome = %v lost = %d", res.Outcome, res.Lost)
	}
	if res.Engine != "dynamic" {
		t.Fatalf("engine stamp = %q", res.Engine)
	}
}

// TestWithModelZeroDelayMatchesEngines: the adversary:sync model produces
// byte-identical traces to every synchronous engine through the façade.
func TestWithModelZeroDelayMatchesEngines(t *testing.T) {
	g := gen.MustBuild("randconnected:n=24,p=0.15", 3)
	want := runTraced(t, g, sim.WithEngine(sim.Sequential))
	for _, mdl := range []string{"adversary:sync", "schedule:static"} {
		got := runTraced(t, g, sim.WithModel(mdl))
		if !engine.EqualTraces(got.Trace, want.Trace) {
			t.Errorf("model %s trace differs from the sequential engine", mdl)
		}
	}
}

func runTraced(t *testing.T, g *graph.Graph, opt sim.Option) engine.Result {
	t.Helper()
	sess, err := sim.New(g, opt, sim.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWithModelErrors: unknown specs fail at New; non-amnesiac protocols
// are rejected for non-sync models.
func TestWithModelErrors(t *testing.T) {
	g := gen.Path(4)
	if _, err := sim.New(g, sim.WithModel("warp")); err == nil {
		t.Error("unknown model kind accepted")
	}
	if _, err := sim.New(g, sim.WithModel("adversary:nope")); err == nil {
		t.Error("unknown adversary family accepted")
	}
	if _, err := sim.New(g, sim.WithModel("adversary:sync"), sim.WithProtocol("classic")); err == nil {
		t.Error("non-amnesiac protocol accepted for a non-sync model")
	}
}

// TestWithModelRunFrom: runs from several sources reuse the session's
// model engine and flood from each source independently.
func TestWithModelRunFrom(t *testing.T) {
	g := gen.Cycle(9)
	sess, err := sim.New(g, sim.WithModel("adversary:collision"), sim.WithMaxRounds(4096))
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.NodeID{0, 3, 6}
	results := runEach(t, sess, sources)
	for i, res := range results {
		// The collision delayer certifies on the odd cycle from any
		// source (vertex-transitive), with the same cycle length.
		if res.Outcome != engine.OutcomeCycle {
			t.Errorf("source %d: outcome %v", sources[i], res.Outcome)
		}
		if res.Certificate == nil || res.Certificate.Length != results[0].Certificate.Length {
			t.Errorf("source %d: certificate %+v", sources[i], res.Certificate)
		}
	}
}

// TestWithModelSeedThreading: the session seed drives random model
// families, reproducibly.
func TestWithModelSeedThreading(t *testing.T) {
	run := func(seed int64) engine.Result {
		sess, err := sim.New(gen.Cycle(8),
			sim.WithModel("adversary:random:max=3"),
			sim.WithSeed(seed),
			sim.WithMaxRounds(512),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(99), run(99)
	if a.Rounds != b.Rounds || a.TotalMessages != b.TotalMessages {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestRandomAdversaryRerunsAreEqual: consecutive runs of one session under
// a random adversary each equal a fresh session's first run, so a reused
// session (a suite group, afsimd's session pool) does not depend on the
// runs it made before.
func TestRandomAdversaryRerunsAreEqual(t *testing.T) {
	newSession := func() *sim.Session {
		sess, err := sim.New(gen.MustBuild("cycle:n=9", 1),
			sim.WithModel("adversary:random:max=3"),
			sim.WithSeed(1),
			sim.WithTrace(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	run := func(sess *sim.Session) engine.Result {
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.WallTime, res.Phases = 0, engine.PhaseTimings{}
		return res
	}
	want := run(newSession())
	sess := newSession()
	for i := range 4 {
		if got := run(sess); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d of one session took %d rounds and %d messages; a fresh session's first run took %d and %d",
				i+1, got.Rounds, got.TotalMessages, want.Rounds, want.TotalMessages)
		}
	}
}

// TestWithModelObserver: observers compose with model runs through the
// façade (an observer counting the nodes that hold or held M).
func TestWithModelObserver(t *testing.T) {
	g := gen.CompleteBinaryTree(4)
	covered := map[graph.NodeID]bool{0: true}
	sess, err := sim.New(g,
		sim.WithModel("schedule:outage:round=1,u=0,v=1"),
		sim.WithObserver(engine.ObserverFunc(func(rec engine.RoundRecord) (bool, error) {
			for _, s := range rec.Sends {
				covered[s.To] = true
			}
			return false, nil
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(covered) != 8 {
		t.Fatalf("coverage = %d, want 8 (left subtree severed)", len(covered))
	}
}

// TestModelBindsToGraph: New checks the nodes and edges a model names
// against the graph, as it checks origins. Each rejected spec here used
// to run as the fault-free flood of cycle:n=4 (2 rounds, 4 messages).
func TestModelBindsToGraph(t *testing.T) {
	g := gen.MustBuild("cycle:n=4", 1)
	for _, c := range []struct {
		spec string
		want error
	}{
		{"schedule:crash:nodes=7,round=1", graph.ErrNodeOutOfRange},
		{"schedule:crash:nodes=1+4,round=2", graph.ErrNodeOutOfRange},
		{"adversary:hold:node=9", graph.ErrNodeOutOfRange},
		{"schedule:outage:round=1,u=4294967296,v=3", graph.ErrNodeOutOfRange},
		{"schedule:outage:round=1,u=0,v=-1", graph.ErrNodeOutOfRange},
		{"schedule:blink:u=4,v=0", graph.ErrNodeOutOfRange},
		{"adversary:edge:u=0,v=5", graph.ErrNodeOutOfRange},
		{"schedule:outage:round=1,u=0,v=2", model.ErrNotAnEdge},
		{"schedule:outage:round=1,u=1,v=1", model.ErrNotAnEdge},
		{"schedule:blink:u=1,v=3", model.ErrNotAnEdge},
		{"adversary:edge:u=2,v=0", model.ErrNotAnEdge},
		{"schedule:outage:round=1,u=3,v=0", nil},
		{"schedule:blink:u=2,v=1", nil},
		{"schedule:crash:nodes=0+3,round=1", nil},
		{"adversary:hold:node=3", nil},
		{"adversary:edge:u=3,v=2", nil},
		{"schedule:loss:p=0.5", nil},
		{"adversary:collision", nil},
	} {
		_, err := sim.New(g, sim.WithModel(c.spec))
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: err = %v, want %v", c.spec, err, c.want)
		}
	}
}
