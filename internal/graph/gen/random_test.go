package gen_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

func TestRandomGNPDeterministicFromSeed(t *testing.T) {
	a := gen.RandomGNP(30, 0.2, rand.New(rand.NewSource(7)))
	b := gen.RandomGNP(30, 0.2, rand.New(rand.NewSource(7)))
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed, different edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomGNPDensityExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := gen.RandomGNP(20, 0, rng); g.M() != 0 {
		t.Errorf("G(n,0) has %d edges", g.M())
	}
	if g := gen.RandomGNP(20, 1, rng); g.M() != 20*19/2 {
		t.Errorf("G(n,1) has %d edges, want %d", g.M(), 20*19/2)
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		g := gen.RandomConnected(n, rng.Float64()*0.1, rng)
		return g.N() == n && algo.Connected(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBipartiteIsBipartite(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := 1+rng.Intn(30), 1+rng.Intn(30)
		g := gen.RandomBipartite(a, b, rng.Float64()*0.3, rng)
		if g.N() != a+b || !algo.IsBipartite(g) {
			return false
		}
		// The augmentation guarantees no isolated nodes.
		return g.MinDegree() >= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomNonBipartiteIsNonBipartiteAndConnected(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(60)
		g := gen.RandomNonBipartite(n, rng.Float64()*0.1, rng)
		return g.N() == n && algo.Connected(g) && !algo.IsBipartite(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomNonBipartitePanicsBelow3(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomNonBipartite(2) did not panic")
		}
	}()
	gen.RandomNonBipartite(2, 0.5, rand.New(rand.NewSource(1)))
}

func TestConnectifyJoinsComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Sparse GNP is almost surely disconnected at this size/density.
	g := gen.RandomGNP(50, 0.01, rng)
	joined, err := gen.Connectify(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !algo.Connected(joined) {
		t.Fatal("Connectify result is disconnected")
	}
	comps := len(algo.Components(g))
	wantEdges := g.M() + comps - 1
	if joined.M() != wantEdges {
		t.Fatalf("Connectify added %d edges, want %d (one per extra component)",
			joined.M()-g.M(), comps-1)
	}
}

func TestConnectifyNoOpWhenConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.Path(10)
	if got, err := gen.Connectify(g, rng); err != nil || got != g {
		t.Fatal("Connectify on a connected graph did not return it unchanged")
	}
}

func TestConnectifyPreservesBipartiteness(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomBipartite(2+rng.Intn(20), 2+rng.Intn(20), 0.05, rng)
		joined, err := gen.Connectify(g, rng)
		return err == nil && algo.Connected(joined) && algo.IsBipartite(joined)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeSingleNode(t *testing.T) {
	g := gen.RandomTree(1, rand.New(rand.NewSource(1)))
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("RandomTree(1) = %s", g)
	}
}
