package classic_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

func runClassic(t *testing.T, g *graph.Graph, origins ...graph.NodeID) engine.Result {
	t.Helper()
	proto, err := classic.NewFlood(g, origins...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidationMatchesCore(t *testing.T) {
	g := gen.Path(3)
	if _, err := classic.NewFlood(g); !errors.Is(err, core.ErrNoOrigin) {
		t.Errorf("no origin error = %v", err)
	}
	if _, err := classic.NewFlood(g, 9); !errors.Is(err, core.ErrBadOrigin) {
		t.Errorf("bad origin error = %v", err)
	}
}

func TestClassicFloodCoversPath(t *testing.T) {
	g := gen.Path(6)
	res := runClassic(t, g, 0)
	if !res.Terminated {
		t.Fatal("classic flooding did not terminate")
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Rounds)
	}
	if res.TotalMessages != 5 {
		t.Fatalf("messages = %d, want 5 (one per edge, one direction)", res.TotalMessages)
	}
}

func TestClassicTriangleStopsFast(t *testing.T) {
	// Triangle from b: round 1 b->{a,c}; round 2 a->c and c->a, both
	// dropped (seen). Amnesiac flooding needs 3 rounds on the same graph.
	res := runClassic(t, gen.Cycle(3), 1)
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	wantRound2 := []engine.Send{{From: 0, To: 2}, {From: 2, To: 0}}
	if !reflect.DeepEqual(res.Trace[1].Sends, wantRound2) {
		t.Fatalf("round 2 = %v, want %v", res.Trace[1].Sends, wantRound2)
	}
}

func TestClassicEveryNodeForwardsAtMostOnce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		proto, err := classic.NewFlood(g, src)
		if err != nil {
			return false
		}
		res, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
		if err != nil {
			return false
		}
		sentInRounds := make(map[graph.NodeID]map[int]bool)
		for _, rec := range res.Trace {
			for _, s := range rec.Sends {
				if sentInRounds[s.From] == nil {
					sentInRounds[s.From] = map[int]bool{}
				}
				sentInRounds[s.From][rec.Round] = true
			}
		}
		for _, rounds := range sentInRounds {
			if len(rounds) > 1 {
				return false // forwarded in two different rounds
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicCoversEveryNodeAtBFSDistance(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		proto, err := classic.NewFlood(g, src)
		if err != nil {
			return false
		}
		res, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
		if err != nil {
			return false
		}
		dist := algo.BFS(g, src)
		firstReceive := make([]int, g.N())
		for _, rec := range res.Trace {
			for _, s := range rec.Sends {
				if firstReceive[s.To] == 0 {
					firstReceive[s.To] = rec.Round
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			if graph.NodeID(v) == src {
				continue
			}
			if firstReceive[v] != dist[v] {
				return false
			}
		}
		// Classic flooding always stops within e(src)+1 rounds.
		return res.Rounds <= algo.Eccentricity(g, src)+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicVsAmnesiacOnBipartite(t *testing.T) {
	// On bipartite graphs the two protocols send exactly the same
	// messages: with no odd cycle a node never hears the message again, so
	// the amnesia makes no difference.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.Connectify(gen.RandomBipartite(2+rng.Intn(15), 2+rng.Intn(15), 0.25, rng), rng)
		src := graph.NodeID(rng.Intn(g.N()))
		cl, err := classic.NewFlood(g, src)
		if err != nil {
			return false
		}
		clRes, err := engine.Run(context.Background(), g, cl, engine.Options{Trace: true})
		if err != nil {
			return false
		}
		af, err := core.NewFlood(g, src)
		if err != nil {
			return false
		}
		afRes, err := engine.Run(context.Background(), g, af, engine.Options{Trace: true})
		if err != nil {
			return false
		}
		return engine.EqualTraces(clRes.Trace, afRes.Trace)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicNeverSendsMoreThanAmnesiac(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		cl, err := classic.NewFlood(g, src)
		if err != nil {
			return false
		}
		clRes, err := engine.Run(context.Background(), g, cl, engine.Options{})
		if err != nil {
			return false
		}
		afRes, err := engine.Run(context.Background(), g, core.MustNewFlood(g, src), engine.Options{})
		if err != nil {
			return false
		}
		return clRes.TotalMessages <= afRes.TotalMessages
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentBits(t *testing.T) {
	if classic.PersistentBitsPerNode() != 1 {
		t.Fatal("classic flooding persistent bits != 1")
	}
}

func TestMultiOriginClassic(t *testing.T) {
	g := gen.Path(7)
	res := runClassic(t, g, 0, 6)
	if !res.Terminated {
		t.Fatal("multi-origin classic flooding did not terminate")
	}
	// Waves meet in the middle: max multi-BFS distance is 3.
	if res.Rounds > 4 {
		t.Fatalf("rounds = %d, want <= 4", res.Rounds)
	}
}

func TestClassicName(t *testing.T) {
	proto, err := classic.NewFlood(gen.Path(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if proto.Name() != "classic-flooding" {
		t.Fatalf("name = %q", proto.Name())
	}
	if got := proto.Origins(); !reflect.DeepEqual(got, []graph.NodeID{0}) {
		t.Fatalf("origins = %v", got)
	}
}
