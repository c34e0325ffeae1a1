package multiflood_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/multiflood"
)

func TestRunValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := multiflood.Run(g, nil); err == nil {
		t.Fatal("empty broadcast list accepted")
	}
	if _, err := multiflood.Run(g, []multiflood.Broadcast{{ID: 0, Origin: 0, Start: 0}}); err == nil {
		t.Fatal("start round 0 accepted")
	}
	if _, err := multiflood.Run(g, []multiflood.Broadcast{{ID: 0, Origin: 9, Start: 1}}); err == nil {
		t.Fatal("bad origin accepted")
	}
}

func TestSingleBroadcastEqualsSoloRun(t *testing.T) {
	g := gen.Cycle(9)
	res, err := multiflood.Run(g, multiflood.AllFromOrigins([]graph.NodeID{4}))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := engine.Run(context.Background(), g, core.MustNewFlood(g, 4), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != solo.Rounds || res.TotalMessages != solo.TotalMessages {
		t.Fatalf("single broadcast diverged from solo run: %+v vs %d/%d",
			res, solo.Rounds, solo.TotalMessages)
	}
	if res.MaxEdgeLoad != 1 {
		t.Fatalf("single flood edge load = %d, want 1", res.MaxEdgeLoad)
	}
}

func TestFloodsAreIndependent(t *testing.T) {
	// Property: each broadcast's per-flood result equals its solo run —
	// concurrent floods of distinct messages never interact.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(3+rng.Intn(30), 0.1, rng)
		k := 1 + rng.Intn(4)
		origins := make([]graph.NodeID, k)
		for i := range origins {
			origins[i] = graph.NodeID(rng.Intn(g.N()))
		}
		res, err := multiflood.Run(g, multiflood.AllFromOrigins(origins))
		if err != nil {
			return false
		}
		for i, o := range origins {
			solo, err := engine.Run(context.Background(), g, core.MustNewFlood(g, o), engine.Options{})
			if err != nil {
				return false
			}
			if res.PerBroadcast[i].Rounds != solo.Rounds ||
				res.PerBroadcast[i].TotalMessages != solo.TotalMessages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousCongestsMoreThanStaggered(t *testing.T) {
	// Broadcasting from every clique node at once puts k-1 messages on
	// some edge in round 2; staggering with a gap wider than a solo run
	// keeps every edge at load 1.
	g := gen.Complete(8)
	origins := g.Nodes()
	simul, err := multiflood.Run(g, multiflood.AllFromOrigins(origins))
	if err != nil {
		t.Fatal(err)
	}
	stag, err := multiflood.Run(g, multiflood.Staggered(origins, 4)) // solo run takes 3 rounds
	if err != nil {
		t.Fatal(err)
	}
	if simul.MaxEdgeLoad <= stag.MaxEdgeLoad {
		t.Fatalf("simultaneous edge load %d <= staggered %d", simul.MaxEdgeLoad, stag.MaxEdgeLoad)
	}
	if stag.MaxEdgeLoad != 1 {
		t.Fatalf("fully staggered edge load = %d, want 1", stag.MaxEdgeLoad)
	}
	if simul.TotalMessages != stag.TotalMessages {
		t.Fatalf("total messages differ between schedules: %d vs %d",
			simul.TotalMessages, stag.TotalMessages)
	}
	if stag.Rounds <= simul.Rounds {
		t.Fatalf("staggering did not lengthen the makespan: %d vs %d", stag.Rounds, simul.Rounds)
	}
}

func TestLoadProfileSumsToTotal(t *testing.T) {
	g := gen.Grid(4, 4)
	broadcasts := multiflood.Staggered([]graph.NodeID{0, 5, 15}, 2)
	res, err := multiflood.Run(g, broadcasts)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := multiflood.LoadProfile(g, broadcasts)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	peak := 0
	for _, load := range profile {
		sum += load
		if load > peak {
			peak = load
		}
	}
	if sum != res.TotalMessages {
		t.Fatalf("profile sums to %d, want %d", sum, res.TotalMessages)
	}
	if peak != res.MaxRoundLoad {
		t.Fatalf("profile peak %d != MaxRoundLoad %d", peak, res.MaxRoundLoad)
	}
}

func TestStaggeredStartRounds(t *testing.T) {
	bcs := multiflood.Staggered([]graph.NodeID{3, 4, 5}, 5)
	for i, want := range []int{1, 6, 11} {
		if bcs[i].Start != want {
			t.Fatalf("broadcast %d starts at %d, want %d", i, bcs[i].Start, want)
		}
	}
}
