package async_test

import (
	"testing"

	"amnesiacflood/internal/async"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// Engine-level behaviour of these adversaries (termination, certificates,
// equivalence with the synchronous engines) is covered by the differential
// and fuzz tests in internal/model; this file unit-tests the scheduling
// policies themselves.

func delaysOf(adv model.Adversary, batch []graph.Edge) []int {
	delays := make([]int, len(batch))
	adv.Delays(batch, delays)
	return delays
}

func TestAdversaryNames(t *testing.T) {
	names := map[string]model.Adversary{
		"sync":              async.SyncAdversary{},
		"collision-delayer": async.CollisionDelayer{},
		"hold-node":         async.HoldNode{Node: 1, Extra: 1},
		"uniform-delayer":   async.UniformDelayer{},
		"edge-delayer":      async.EdgeDelayer{},
		"random":            async.NewRandomAdversary(1, 1),
	}
	for want, adv := range names {
		if adv.Name() != want {
			t.Errorf("adversary name = %q, want %q", adv.Name(), want)
		}
	}
}

func TestCollisionDelayerHoldsAllButLowestSender(t *testing.T) {
	// Two messages collide at node 2; the copy from the higher sender is
	// held one round. The lone message to node 3 is on time.
	batch := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}}
	got := delaysOf(async.CollisionDelayer{}, batch)
	want := []int{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
}

func TestHoldNodeDelaysOnlyItsSender(t *testing.T) {
	batch := []graph.Edge{{U: 0, V: 1}, {U: 3, V: 1}, {U: 3, V: 4}}
	got := delaysOf(async.HoldNode{Node: 3, Extra: 2}, batch)
	want := []int{0, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
}

func TestEdgeDelayerBothDirections(t *testing.T) {
	adv := async.EdgeDelayer{Edge: graph.Edge{U: 2, V: 1}, Extra: 3}
	batch := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 2, V: 3}}
	got := delaysOf(adv, batch)
	want := []int{3, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
}

func TestUniformAndSyncDelays(t *testing.T) {
	batch := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}
	for _, d := range delaysOf(async.UniformDelayer{Extra: 2}, batch) {
		if d != 2 {
			t.Fatal("uniform delayer must delay everything equally")
		}
	}
	for _, d := range delaysOf(async.SyncAdversary{}, batch) {
		if d != 0 {
			t.Fatal("sync adversary must never delay")
		}
	}
}

func TestRandomAdversarySeedReproducible(t *testing.T) {
	batch := make([]graph.Edge, 8)
	a := delaysOf(async.NewRandomAdversary(42, 3), batch)
	b := delaysOf(async.NewRandomAdversary(42, 3), batch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different delays")
		}
		if a[i] < 0 || a[i] > 3 {
			t.Fatalf("delay %d outside {0..3}", a[i])
		}
	}
	if async.NewRandomAdversary(1, 1).Deterministic() {
		t.Fatal("random adversary must not claim determinism")
	}
}

func TestDeterministicFlags(t *testing.T) {
	for _, adv := range []model.Adversary{
		async.SyncAdversary{}, async.CollisionDelayer{}, async.HoldNode{},
		async.UniformDelayer{}, async.EdgeDelayer{},
	} {
		if !adv.Deterministic() {
			t.Errorf("%s must be deterministic", adv.Name())
		}
	}
}
