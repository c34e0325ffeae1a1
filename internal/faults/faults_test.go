package faults_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/faults"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

func TestValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := faults.Run(g, faults.NoFaults{}, faults.Options{}); err == nil {
		t.Fatal("no origins accepted")
	}
	if _, err := faults.Run(g, faults.NoFaults{}, faults.Options{}, 99); err == nil {
		t.Fatal("invalid origin accepted")
	}
}

func TestNoFaultsMatchesEngine(t *testing.T) {
	// Property: the faults runner with no faults equals the fault-free
	// engine on rounds and message counts.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		fr, err := faults.Run(g, faults.NoFaults{}, faults.Options{}, src)
		if err != nil || fr.Outcome != faults.Terminated {
			return false
		}
		res, err := engine.Run(context.Background(), g, core.MustNewFlood(g, src), engine.Options{})
		if err != nil {
			return false
		}
		return fr.Rounds == res.Rounds &&
			fr.Delivered == res.TotalMessages &&
			fr.Dropped == 0 && fr.Absorbed == 0 &&
			fr.CoverageCount() == g.N()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleLossBreaksTerminationOnEvenCycle(t *testing.T) {
	// The E12 headline: drop ONE message on C4 — the copy a->d in round 1
	// — and the surviving wavefront circulates forever.
	g := gen.Cycle(4)
	inj := faults.AfterRound{Inner: faults.DropOnce{Round: 1, From: 0, To: 3}, Round: 1}
	res, err := faults.Run(g, inj, faults.Options{Trace: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != faults.CycleDetected {
		t.Fatalf("outcome = %v, want CycleDetected (lonely wavefront)", res.Outcome)
	}
	if res.CycleLength != 4 {
		t.Fatalf("cycle length = %d, want 4 (one lap of C4)", res.CycleLength)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d, want exactly 1", res.Dropped)
	}
}

func TestSingleLossOnPathStillTerminates(t *testing.T) {
	// With no cycle there is nowhere to circulate: loss only shrinks the
	// flood.
	g := gen.Path(8)
	inj := faults.AfterRound{Inner: faults.DropOnce{Round: 2, From: 1, To: 2}, Round: 2}
	res, err := faults.Run(g, inj, faults.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != faults.Terminated {
		t.Fatalf("outcome = %v, want Terminated", res.Outcome)
	}
	// The drop cuts coverage: nodes beyond the lost edge never hear M.
	if res.CoverageCount() != 2 { // nodes 0 and 1
		t.Fatalf("coverage = %d, want 2", res.CoverageCount())
	}
}

func TestSingleLossOnOddCycle(t *testing.T) {
	// Odd cycles have no even closed walk for a lonely wavefront, but the
	// echo structure changes; whatever happens must be either termination
	// or a certified loop, never a silent round-limit (the injector is
	// settled).
	g := gen.Cycle(5)
	inj := faults.AfterRound{Inner: faults.DropOnce{Round: 1, From: 0, To: 4}, Round: 1}
	res, err := faults.Run(g, inj, faults.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == faults.RoundLimit {
		t.Fatalf("outcome = %v; settled injector must certify or terminate", res.Outcome)
	}
	t.Logf("C5 with one loss: %v after %d rounds", res.Outcome, res.Rounds)
}

func TestRandomLossAlwaysEndsSomehow(t *testing.T) {
	// Random loss is round-dependent (no certificates); runs must finish
	// as Terminated or RoundLimit and never error.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(3+rng.Intn(30), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		res, err := faults.Run(g, faults.RandomLoss{P: 0.1, Seed: seed}, faults.Options{MaxRounds: 512}, src)
		if err != nil {
			return false
		}
		return res.Outcome == faults.Terminated || res.Outcome == faults.RoundLimit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomLossDeterministicPerSeed(t *testing.T) {
	g := gen.Grid(5, 5)
	run := func() faults.Result {
		res, err := faults.Run(g, faults.RandomLoss{P: 0.2, Seed: 7}, faults.Options{MaxRounds: 512}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Outcome != b.Outcome || a.Rounds != b.Rounds || a.Delivered != b.Delivered || a.Dropped != b.Dropped {
		t.Fatalf("same seed, different runs: %+v vs %+v", a, b)
	}
}

func TestCrashAbsorbsMessages(t *testing.T) {
	// Crash the middle of a path before the flood arrives: the far side
	// never hears M, and the message into the crashed node is absorbed.
	g := gen.Path(5)
	inj := faults.CrashAt{CrashRound: map[graph.NodeID]int{2: 1}}
	res, err := faults.Run(g, inj, faults.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != faults.Terminated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.CoverageCount() != 2 {
		t.Fatalf("coverage = %d, want 2 (nodes 0, 1)", res.CoverageCount())
	}
	if res.Absorbed != 1 {
		t.Fatalf("absorbed = %d, want 1", res.Absorbed)
	}
}

func TestCrashedSenderDropsOutput(t *testing.T) {
	// Crash the origin in round 1: nothing is ever sent.
	g := gen.Star(5)
	inj := faults.CrashAt{CrashRound: map[graph.NodeID]int{0: 1}}
	res, err := faults.Run(g, inj, faults.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != faults.Terminated || res.Delivered != 0 {
		t.Fatalf("crashed-origin run = %+v", res)
	}
	if res.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (the origin's sends)", res.Dropped)
	}
}

func TestLateCrashCanEndWithEcho(t *testing.T) {
	// Crash a clique node mid-flood; the run must still end (cliques have
	// diameter 1, echoes die fast) and coverage stays full since the
	// crash happens after delivery.
	g := gen.Complete(6)
	inj := faults.CrashAt{CrashRound: map[graph.NodeID]int{3: 2}}
	res, err := faults.Run(g, inj, faults.Options{MaxRounds: 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == faults.CycleDetected {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.CoverageCount() != 6 {
		t.Fatalf("coverage = %d, want 6", res.CoverageCount())
	}
}

func TestInjectorNames(t *testing.T) {
	names := []struct {
		inj  faults.Injector
		want string
	}{
		{faults.NoFaults{}, "none"},
		{faults.DropOnce{Round: 1, From: 0, To: 3}, "dropOnce(r1,0->3)"},
		{faults.RandomLoss{P: 0.25}, "randomLoss(p=0.25)"},
		{faults.CrashAt{CrashRound: map[graph.NodeID]int{2: 1}}, "crash(2@r1)"},
		{faults.AfterRound{Inner: faults.NoFaults{}, Round: 3}, "none+settled"},
	}
	for _, tc := range names {
		if got := tc.inj.Name(); got != tc.want {
			t.Errorf("name = %q, want %q", got, tc.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if faults.Terminated.String() != "terminated" ||
		faults.CycleDetected.String() != "non-termination-certified" ||
		faults.RoundLimit.String() != "round-limit" {
		t.Fatal("outcome strings wrong")
	}
}

func TestMultiOriginWithFaults(t *testing.T) {
	g := gen.Cycle(8)
	res, err := faults.Run(g, faults.NoFaults{}, faults.Options{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != faults.Terminated || res.CoverageCount() != 8 {
		t.Fatalf("multi-origin run = %+v", res)
	}
}
