package model_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/dynamic"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
)

// Faults run as schedules of the dynamic model: a lost copy is a directed
// edge down for one round (dynamic.OutageOnce, dynamic.Loss), a crashed
// node one whose every edge is down (dynamic.Crash). Every copy that does
// not arrive counts in Result.Lost, whether the link dropped it or a
// crashed endpoint never sent or received it.

func TestFaultScheduleValidation(t *testing.T) {
	e := model.NewEngine(gen.Path(3), model.Model{Schedule: dynamic.Loss{P: 0.1}})
	if _, err := e.Run(context.Background(), nil, opts(0, false)); err == nil {
		t.Fatal("no origins accepted")
	}
	if _, err := e.Run(context.Background(), origins(99), opts(0, false)); err == nil {
		t.Fatal("invalid origin accepted")
	}
	for _, spec := range []string{
		"schedule:loss:p=1.5",
		"schedule:loss:p=-0.1",
		"schedule:loss:p=NaN",
		"schedule:crash:nodes=a",
		"schedule:crash:nodes=-1",
		"schedule:crash:nodes=1++2",
		"schedule:crash:round=0",
	} {
		if _, err := model.Build(spec, 1); err == nil {
			t.Errorf("Build(%q) succeeded, want error", spec)
		}
	}
}

// TestLossFreeMatchesEngine: loss with probability 0 equals the fault-free
// synchronous engine on rounds, messages and coverage.
func TestLossFreeMatchesEngine(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		o := opts(0, false)
		cov := observeCoverage(t, g, &o, src)
		got, err := model.NewEngine(g, model.Model{Schedule: dynamic.Loss{P: 0, Seed: seed}}).Run(context.Background(), origins(src), o)
		if err != nil || got.Outcome != engine.OutcomeTerminated {
			return false
		}
		want, err := engine.Run(context.Background(), g, core.MustNewFlood(g, src), engine.Options{})
		if err != nil {
			return false
		}
		return got.Rounds == want.Rounds && got.TotalMessages == want.TotalMessages &&
			got.Lost == 0 && coveredCount(cov) == g.N()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleLossBreaksTerminationOnEvenCycle: on every even cycle, losing
// the one copy the origin sends across its edge to n-1 in round 1 leaves a
// lonely wavefront that laps the cycle forever, certified with period n.
func TestSingleLossBreaksTerminationOnEvenCycle(t *testing.T) {
	for n := 4; n <= 12; n += 2 {
		spec := fmt.Sprintf("schedule:outage:round=1,u=0,v=%d", n-1)
		res, err := model.NewEngine(gen.Cycle(n), model.MustBuild(spec, 1)).
			Run(context.Background(), origins(0), opts(0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != engine.OutcomeCycle || res.Certificate == nil {
			t.Fatalf("C%d: outcome = %v, want a certified cycle (lonely wavefront)", n, res.Outcome)
		}
		if res.Certificate.Length != n {
			t.Fatalf("C%d: period = %d, want %d (one lap)", n, res.Certificate.Length, n)
		}
		if res.Lost != 1 {
			t.Fatalf("C%d: lost = %d, want exactly 1", n, res.Lost)
		}
	}
}

// TestOutageOnPathStillTerminates: with no cycle there is nowhere to
// circulate; losing the copy 1->2 in round 2 only cuts coverage.
func TestOutageOnPathStillTerminates(t *testing.T) {
	g := gen.Path(8)
	o := opts(0, false)
	cov := observeCoverage(t, g, &o, 0)
	res, err := model.NewEngine(g, model.Model{Schedule: dynamic.OutageOnce{Round: 2, Edge: edge(1, 2)}}).Run(context.Background(), origins(0), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || res.Lost != 1 {
		t.Fatalf("outcome %v, lost %d; want terminated, 1", res.Outcome, res.Lost)
	}
	if got := coveredCount(cov); got != 2 { // nodes 0 and 1
		t.Fatalf("coverage = %d, want 2", got)
	}
}

// TestOutageOnOddCycleEnds: one loss on C5 must end in termination or a
// certified loop, never a silent round limit (the schedule is settled).
func TestOutageOnOddCycleEnds(t *testing.T) {
	res, err := model.NewEngine(gen.Cycle(5), model.Model{Schedule: dynamic.OutageOnce{Round: 1, Edge: edge(0, 4)}}).
		Run(context.Background(), origins(0), opts(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == engine.OutcomeRoundLimit {
		t.Fatalf("outcome = %v; a settled schedule must certify or terminate", res.Outcome)
	}
}

// TestLossNeverCertifies: random loss is round-dependent, so its runs end
// in termination or the round limit and never claim a certificate.
func TestLossNeverCertifies(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(3+rng.Intn(30), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		res, err := model.NewEngine(g, model.Model{Schedule: dynamic.Loss{P: 0.1, Seed: seed}}).Run(context.Background(), origins(src), opts(512, false))
		if err != nil {
			return false
		}
		return res.Certificate == nil &&
			(res.Outcome == engine.OutcomeTerminated || res.Outcome == engine.OutcomeRoundLimit)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLossDeterministicPerSeed: equal (spec, seed) pairs build schedules
// that lose the same copies, so their runs agree exactly.
func TestLossDeterministicPerSeed(t *testing.T) {
	g := gen.Grid(5, 5)
	run := func(seed int64) engine.Result {
		res, err := model.NewEngine(g, model.MustBuild("schedule:loss:p=0.2", seed)).
			Run(context.Background(), origins(0), opts(512, true))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Outcome != b.Outcome || a.Rounds != b.Rounds || a.TotalMessages != b.TotalMessages ||
		a.Lost != b.Lost || !engine.EqualTraces(a.Trace, b.Trace) {
		t.Fatalf("same seed, different runs: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.Outcome, a.Rounds, a.TotalMessages, a.Lost, b.Outcome, b.Rounds, b.TotalMessages, b.Lost)
	}
	if a.Lost == 0 {
		t.Fatal("p=0.2 lost nothing on a 25-node grid")
	}
}

// TestCrashAbsorbsMessages: crash the middle of a path before the flood
// arrives; the far side never hears M, and the one copy into the crashed
// node is lost.
func TestCrashAbsorbsMessages(t *testing.T) {
	g := gen.Path(5)
	o := opts(0, false)
	cov := observeCoverage(t, g, &o, 0)
	res, err := model.NewEngine(g, model.MustBuild("schedule:crash:nodes=2,round=1", 1)).
		Run(context.Background(), origins(0), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := coveredCount(cov); got != 2 {
		t.Fatalf("coverage = %d, want 2 (nodes 0, 1)", got)
	}
	if res.Lost != 1 {
		t.Fatalf("lost = %d, want 1", res.Lost)
	}
}

// TestCrashedSenderDropsOutput: with the origin down from round 1 nothing
// is ever delivered, and each of its sends is lost.
func TestCrashedSenderDropsOutput(t *testing.T) {
	res, err := model.NewEngine(gen.Star(5), model.Model{Schedule: dynamic.Crash{Nodes: []graph.NodeID{0}, Round: 1}}).
		Run(context.Background(), origins(0), opts(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || res.TotalMessages != 0 {
		t.Fatalf("crashed-origin run: outcome %v, delivered %d", res.Outcome, res.TotalMessages)
	}
	if res.Lost != 4 {
		t.Fatalf("lost = %d, want 4 (the origin's sends)", res.Lost)
	}
}

// TestLateCrashCanEndWithEcho: a clique node crashing mid-flood, after M
// reached it, leaves coverage full and the flood still ends.
func TestLateCrashCanEndWithEcho(t *testing.T) {
	g := gen.Complete(6)
	o := opts(512, false)
	cov := observeCoverage(t, g, &o, 0)
	res, err := model.NewEngine(g, model.Model{Schedule: dynamic.Crash{Nodes: []graph.NodeID{3}, Round: 2}}).
		Run(context.Background(), origins(0), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == engine.OutcomeCycle {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := coveredCount(cov); got != 6 {
		t.Fatalf("coverage = %d, want 6", got)
	}
}

// TestMultiOriginUnderLoss: loss schedules take origin sets like every
// model; loss-free, two antipodal origins cover C8 and terminate.
func TestMultiOriginUnderLoss(t *testing.T) {
	g := gen.Cycle(8)
	o := opts(0, false)
	cov := observeCoverage(t, g, &o, 0, 4)
	res, err := model.NewEngine(g, model.Model{Schedule: dynamic.Loss{P: 0}}).Run(context.Background(), origins(0, 4), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || coveredCount(cov) != 8 {
		t.Fatalf("multi-origin run: outcome %v, coverage %d", res.Outcome, coveredCount(cov))
	}
}

// TestLossCertainDropsEverything: p=1 loses every copy the origins send,
// and the round that lost them is observed, with no sends.
func TestLossCertainDropsEverything(t *testing.T) {
	res, err := model.NewEngine(gen.Cycle(8), model.Model{Schedule: dynamic.Loss{P: 1}}).Run(context.Background(), origins(0, 4), opts(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != engine.OutcomeTerminated || res.TotalMessages != 0 || res.Lost != 4 || res.Rounds != 1 {
		t.Fatalf("p=1: outcome %v, rounds %d, delivered %d, lost %d; want terminated, 1, 0, 4",
			res.Outcome, res.Rounds, res.TotalMessages, res.Lost)
	}
	if len(res.Trace) != 1 || res.Trace[0].Round != 1 || len(res.Trace[0].Sends) != 0 {
		t.Fatalf("p=1: trace = %+v, want one round-1 record with no sends", res.Trace)
	}
}
