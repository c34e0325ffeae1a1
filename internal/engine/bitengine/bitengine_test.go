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

// kernelsOf replays the engine's kernel choice over a sequential trace of
// g: round 1 is push, and every later round asks DenseRound with its
// message count and the degree sum of the previous round's responders,
// which are its receivers less, under the once rule, the nodes already
// seen (the bootstrap senders and earlier receivers).
func kernelsOf(g *graph.Graph, trace []engine.RoundRecord, once bool) (push, dense int) {
	e := bitengine.New(g)
	seen := make([]bool, g.N())
	if once && len(trace) > 0 {
		for _, s := range trace[0].Sends {
			seen[s.From] = true
		}
	}
	lastDeg := 0
	for i, rec := range trace {
		if i > 0 && bitengine.DenseRound(e, len(rec.Sends), lastDeg) {
			dense++
		} else {
			push++
		}
		lastDeg = 0
		for _, v := range rec.Receivers() {
			if once && seen[v] {
				continue
			}
			seen[v] = true
			lastDeg += g.Degree(v)
		}
	}
	return push, dense
}

// TestCorpusReachesDenseRounds makes sure the differential runs reach both
// kernels: the amnesiac, multi-source and classic corpus runs of the
// equivalence tests above (no observer) and of TestFrontierMatchesSends (a
// frontier observer, whose dense rounds also mark receivers already seen)
// each run some rounds push and some dense. It replays those tests' origin
// draws.
func TestCorpusReachesDenseRounds(t *testing.T) {
	type tally struct{ push, dense int }
	counts := map[string]*tally{}
	count := func(name string, g *graph.Graph, proto engine.Protocol, once bool) {
		res, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		push, dense := kernelsOf(g, res.Trace, once)
		if counts[name] == nil {
			counts[name] = &tally{}
		}
		counts[name].push += push
		counts[name].dense += dense
	}
	amnesiac, multi, cl := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8)), rand.New(rand.NewSource(9))
	frontier := rand.New(rand.NewSource(10))
	for _, g := range instances(t) {
		pick := func(rng *rand.Rand) graph.NodeID { return graph.NodeID(rng.Intn(g.N())) }
		count("amnesiac", g, core.MustNewFlood(g, pick(amnesiac)), false)
		count("multiSource", g, core.MustNewFlood(g, pick(multi), pick(multi), pick(multi)), false)
		count("classic", g, classic.MustNewFlood(g, pick(cl)), true)
		src := pick(frontier)
		origins := []graph.NodeID{pick(frontier), pick(frontier), pick(frontier)}
		count("frontier/amnesiac", g, core.MustNewFlood(g, src), false)
		count("frontier/multiSource", g, core.MustNewFlood(g, origins...), false)
		count("frontier/classic", g, classic.MustNewFlood(g, src), true)
	}
	for _, name := range []string{"amnesiac", "multiSource", "classic", "frontier/amnesiac", "frontier/multiSource", "frontier/classic"} {
		c := counts[name]
		t.Logf("%s: %d push rounds, %d dense rounds", name, c.push, c.dense)
		if c.push == 0 || c.dense == 0 {
			t.Errorf("%s: %d push and %d dense rounds, want both", name, c.push, c.dense)
		}
	}
}

// partialBootstrap is amnesiac flooding whose round 1 leaves out the last
// bootstrap send, so its first frontier is not whole rows: no previous
// round implies it.
type partialBootstrap struct {
	*core.Flood
}

func (p partialBootstrap) Bootstrap() []engine.Send {
	sends := p.Flood.Bootstrap()
	return sends[:len(sends)-1]
}

// TestPartialBootstrapRunsPushFirst pins round 1 as push: on K17 from node
// 0, a bootstrap that skips node 16 is followed by a dense round 2, which
// must build on the sends round 1 made, traced and frontier-observed alike.
// The flood does not terminate on K17 (the paper's theorem covers floods
// whose origins send whole rows), so both sides stop after a fixed number
// of rounds.
func TestPartialBootstrapRunsPushFirst(t *testing.T) {
	const rounds = 8
	g := gen.Complete(17)
	proto := partialBootstrap{core.MustNewFlood(g, 0)}
	stopAt := engine.ObserverFunc(func(r engine.RoundRecord) (bool, error) { return r.Round == rounds, nil })
	opts := engine.Options{Trace: true, Observer: stopAt}
	want, err := engine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Trace) != rounds || len(want.Trace[0].Sends) != 15 {
		t.Fatalf("partial bootstrap trace %v", want.Trace)
	}
	if !bitengine.DenseRound(bitengine.New(g), len(want.Trace[1].Sends), 15*g.Degree(1)) {
		t.Fatal("round 2 of the partial bootstrap flood runs push; pick an instance whose round 2 is dense")
	}
	got, err := bitengine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualTraces(want.Trace, got.Trace) {
		t.Errorf("bitset trace differs from sequential")
	}
	if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || got.Stopped != want.Stopped {
		t.Errorf("bitset result %+v, want %+v", got, want)
	}
	probe := &frontierProbe{stopAt: rounds}
	if _, err := bitengine.Run(context.Background(), g, proto, engine.Options{Observer: probe}); err != nil {
		t.Fatal(err)
	}
	if wantViews := viewsOf(want.Trace); !sameViews(probe.rounds, wantViews) {
		t.Errorf("frontiers %v, want %v", probe.rounds, wantViews)
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
