package bitengine_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// instances is the differential corpus, mirroring fastengine's: bipartite
// and non-bipartite, trees, dense and sparse, random and structured —
// including degree-skewed instances (star, wheel, lollipop, prefattach)
// whose rows range from one slot to many words of the slot bitsets.
func instances(tb testing.TB) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	gs := []*graph.Graph{
		gen.Path(2),
		gen.Path(33),
		gen.Path(130), // rows straddle many 64-bit word boundaries
		gen.Cycle(3),  // non-bipartite
		gen.Cycle(4),
		gen.Cycle(101), // non-bipartite
		gen.Star(17),
		gen.Star(130),
		gen.Wheel(16),    // non-bipartite
		gen.Complete(2),  // single edge
		gen.Complete(17), // non-bipartite
		gen.Complete(65), // a row wider than one word
		gen.Grid(7, 9),
		gen.Torus(4, 5), // non-bipartite
		gen.Hypercube(5),
		gen.Petersen(),      // non-bipartite
		gen.Lollipop(5, 20), // non-bipartite
		gen.Barbell(4, 12),  // non-bipartite
		gen.CompleteBinaryTree(6),
		gen.RandomTree(64, rng),
		gen.RandomBipartite(16, 20, 0.2, rng),
		gen.RandomNonBipartite(80, 0.06, rng),
		gen.RandomConnected(120, 0.04, rng),
		gen.RandomGNP(60, 0.08, rng), // possibly disconnected
		gen.PreferentialAttachment(90, 3, rng),
	}
	if len(gs) < 20 {
		tb.Fatalf("differential corpus has %d instances, want >= 20", len(gs))
	}
	return gs
}

// assertSameRun compares the bitset engine against the sequential
// reference and the fast engine on one protocol instance.
func assertSameRun(t *testing.T, g *graph.Graph, proto engine.Protocol) {
	t.Helper()
	opts := engine.Options{Trace: true}
	want, err := engine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatalf("sequential on %s: %v", g, err)
	}
	fast, err := fastengine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatalf("fast on %s: %v", g, err)
	}
	if !engine.EqualTraces(want.Trace, fast.Trace) {
		t.Fatalf("fast on %s: trace differs from sequential", g)
	}
	got, err := bitengine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatalf("bitset on %s: %v", g, err)
	}
	if !engine.EqualTraces(want.Trace, got.Trace) {
		t.Errorf("bitset on %s: trace differs from sequential", g)
	}
	if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages ||
		got.Terminated != want.Terminated || got.Protocol != want.Protocol {
		t.Errorf("bitset on %s: result %+v, want %+v", g, got, want)
	}
}

func TestEngineEquivalenceAmnesiac(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range instances(t) {
		src := graph.NodeID(rng.Intn(g.N()))
		assertSameRun(t, g, core.MustNewFlood(g, src))
	}
}

func TestEngineEquivalenceMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, g := range instances(t) {
		origins := []graph.NodeID{
			graph.NodeID(rng.Intn(g.N())),
			graph.NodeID(rng.Intn(g.N())),
			graph.NodeID(rng.Intn(g.N())),
		}
		assertSameRun(t, g, core.MustNewFlood(g, origins...))
	}
}

func TestEngineEquivalenceClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range instances(t) {
		src := graph.NodeID(rng.Intn(g.N()))
		assertSameRun(t, g, classic.MustNewFlood(g, src))
	}
}

// TestEngineReuse runs the same Engine repeatedly, across protocols and
// rules, and after an early stop: the bitsets must carry no state between
// runs.
func TestEngineReuse(t *testing.T) {
	g := gen.Lollipop(5, 30)
	e := bitengine.New(g)
	flood := core.MustNewFlood(g, 3)
	want, err := engine.Run(context.Background(), g, flood, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := e.Run(context.Background(), flood, engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !engine.EqualTraces(want.Trace, got.Trace) {
			t.Fatalf("run %d: trace differs", i)
		}
	}
	// A run stopped mid-flight must not leak frontier bits into the next.
	stopped, err := e.Run(context.Background(), flood, engine.Options{Observer: engine.ObserverFunc(func(r engine.RoundRecord) (bool, error) {
		return r.Round == 2, nil
	})})
	if err != nil || !stopped.Stopped || stopped.Rounds != 2 {
		t.Fatalf("stopped run: %+v, err %v", stopped, err)
	}
	cl := classic.MustNewFlood(g, 3)
	wantCl, err := engine.Run(context.Background(), g, cl, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	gotCl, err := e.Run(context.Background(), cl, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualTraces(wantCl.Trace, gotCl.Trace) {
		t.Fatal("classic after amnesiac on a reused engine: trace differs")
	}
}

// unsupported hides a protocol's BitsetRule, leaving a plain Protocol.
type unsupported struct {
	engine.Protocol
}

func TestUnsupportedProtocolError(t *testing.T) {
	g := gen.Cycle(9)
	flood := core.MustNewFlood(g, 0)
	_, err := bitengine.Run(context.Background(), g, unsupported{flood}, engine.Options{})
	if !errors.Is(err, bitengine.ErrUnsupportedProtocol) {
		t.Fatalf("err = %v, want ErrUnsupportedProtocol", err)
	}
	if bitengine.Supports(unsupported{flood}) {
		t.Fatal("Supports must be false without a BitsetRule")
	}
	if !bitengine.Supports(flood) {
		t.Fatal("Supports must be true for amnesiac flooding")
	}
}

func TestMaxRoundsError(t *testing.T) {
	g := gen.Cycle(64)
	flood := core.MustNewFlood(g, 0)
	_, err := bitengine.Run(context.Background(), g, flood, engine.Options{MaxRounds: 3})
	if !errors.Is(err, engine.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	res, err := bitengine.Run(context.Background(), g, flood, engine.Options{MaxRounds: 64})
	if err != nil {
		t.Fatalf("64 rounds on C64 must suffice: %v", err)
	}
	if !res.Terminated || res.Rounds != 32 {
		t.Fatalf("C64 from 0: rounds=%d terminated=%t, want 32 true", res.Rounds, res.Terminated)
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	g := gen.Path(9)
	flood := core.MustNewFlood(g, 0)
	var rounds []int
	var msgs int
	_, err := bitengine.Run(context.Background(), g, flood, engine.Options{Observer: engine.ObserverFunc(func(r engine.RoundRecord) (bool, error) {
		rounds = append(rounds, r.Round)
		msgs += len(r.Sends)
		return false, nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 8 || rounds[0] != 1 || rounds[7] != 8 {
		t.Fatalf("observer rounds = %v", rounds)
	}
	if msgs != 8 {
		t.Fatalf("observer saw %d messages on P9 from an end, want 8", msgs)
	}
}

func TestObserverErrorAborts(t *testing.T) {
	g := gen.Cycle(12)
	flood := core.MustNewFlood(g, 0)
	boom := errors.New("boom")
	_, err := bitengine.Run(context.Background(), g, flood, engine.Options{Observer: engine.ObserverFunc(func(r engine.RoundRecord) (bool, error) {
		if r.Round == 3 {
			return false, boom
		}
		return false, nil
	})})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the observer's error", err)
	}
}

func TestCancellation(t *testing.T) {
	g := gen.Cycle(64)
	flood := core.MustNewFlood(g, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := bitengine.Run(ctx, g, flood, engine.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFirstRunAllocationPerSlot guards the set-up footprint: the kernels
// run on the graph's own CSR, so a fresh engine's first untraced run
// allocates the mirror permutation (4 bytes per directed slot), the slot
// bitsets and the dirty lists, and no copy of the adjacency. A copy of
// Targets alone would cost 8 bytes per slot.
func TestFirstRunAllocationPerSlot(t *testing.T) {
	for _, spec := range []string{"gnp:n=4096,p=0.015625", "prefattach:n=4096,m=8"} {
		g := gen.MustBuild(spec, 1)
		flood := core.MustNewFlood(g, 0)
		e := bitengine.New(g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.Run(context.Background(), flood, engine.Options{})
		runtime.ReadMemStats(&after)
		if err != nil || !res.Terminated {
			t.Fatalf("%s: %+v, err %v", spec, res, err)
		}
		slots := len(g.CSR().Targets)
		perSlot := float64(after.TotalAlloc-before.TotalAlloc) / float64(slots)
		t.Logf("%s: first run allocated %.1f B per directed slot (%d slots)", spec, perSlot, slots)
		if perSlot >= 8 {
			t.Errorf("%s: first run allocated %.1f B per directed slot, want < 8", spec, perSlot)
		}
	}
}
