package fastengine_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// opaque hides a protocol's BitsetRule, forcing the fastengine onto the
// generic NewNode fallback path.
type opaque struct {
	engine.Protocol
}

// instances is the differential corpus: bipartite and non-bipartite, trees,
// dense and sparse, random and structured. The acceptance bar is ≥ 20
// instances with non-bipartite ones included.
func instances(tb testing.TB) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	gs := []*graph.Graph{
		gen.Path(2),
		gen.Path(33),
		gen.Cycle(3), // non-bipartite
		gen.Cycle(4),
		gen.Cycle(33),  // non-bipartite
		gen.Cycle(101), // non-bipartite
		gen.Star(17),
		gen.Wheel(16),    // non-bipartite
		gen.Complete(2),  // single edge
		gen.Complete(17), // non-bipartite
		gen.Grid(7, 9),
		gen.Torus(4, 5), // non-bipartite (odd dimension)
		gen.Hypercube(5),
		gen.Petersen(),      // non-bipartite
		gen.Lollipop(5, 20), // non-bipartite
		gen.Barbell(4, 12),  // non-bipartite
		gen.CompleteBinaryTree(6),
		gen.RandomTree(64, rng),
		gen.RandomBipartite(16, 20, 0.2, rng),
		gen.RandomNonBipartite(80, 0.06, rng), // non-bipartite
		gen.RandomConnected(120, 0.04, rng),
		gen.RandomGNP(60, 0.08, rng), // possibly disconnected
		// Above 64 nodes, rounds fall on both sides of group's n/64
		// receiver cutover (sort below, node bitmap from it on).
		gen.Path(130),
		gen.Star(130),
		gen.Complete(65),
	}
	if len(gs) < 20 {
		tb.Fatalf("differential corpus has %d instances, want >= 20", len(gs))
	}
	return gs
}

type runner struct {
	name string
	run  func(context.Context, *graph.Graph, engine.Protocol, engine.Options) (engine.Result, error)
}

func allRunners() []runner {
	return []runner{
		{"chan", chanengine.Run},
		{"fast", fastengine.Run},
		{"fastFallback", func(ctx context.Context, g *graph.Graph, p engine.Protocol, o engine.Options) (engine.Result, error) {
			return fastengine.Run(ctx, g, opaque{p}, o)
		}},
	}
}

// assertSameRun compares a runner's outcome against the sequential reference
// on one protocol instance.
func assertSameRun(t *testing.T, g *graph.Graph, proto engine.Protocol) {
	t.Helper()
	opts := engine.Options{Trace: true}
	want, err := engine.Run(context.Background(), g, proto, opts)
	if err != nil {
		t.Fatalf("sequential on %s: %v", g, err)
	}
	for _, r := range allRunners() {
		got, err := r.run(context.Background(), g, proto, opts)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.name, g, err)
		}
		if !engine.EqualTraces(want.Trace, got.Trace) {
			t.Errorf("%s on %s: trace differs from sequential", r.name, g)
		}
		if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages ||
			got.Terminated != want.Terminated || got.Protocol != want.Protocol {
			t.Errorf("%s on %s: result %+v, want %+v", r.name, g, got, want)
		}
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

// TestCorpusReachesBothGroupOrders makes sure the amnesiac differential runs
// above order receivers both ways: some round has fewer than n/64 distinct
// receivers (group sorts them) and some has at least that many (group sweeps
// the node bitmap).
func TestCorpusReachesBothGroupOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) // TestEngineEquivalenceAmnesiac's origins
	var sorted, bitmap int
	for _, g := range instances(t) {
		src := graph.NodeID(rng.Intn(g.N()))
		res, err := engine.Run(context.Background(), g, core.MustNewFlood(g, src), engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		e := fastengine.New(g)
		for _, rec := range res.Trace {
			if fastengine.BitmapRound(e, len(rec.Receivers())) {
				bitmap++
			} else {
				sorted++
			}
		}
	}
	t.Logf("%d sorted rounds, %d bitmap rounds", sorted, bitmap)
	if sorted == 0 || bitmap == 0 {
		t.Fatalf("%d sorted and %d bitmap rounds, want both", sorted, bitmap)
	}
}

// TestWarmRunAllocationsIndependentOfRounds pins the package doc's zero
// allocations per round on both of group's receiver orders: a warm Engine
// allocates as much per run on a long flood as on a short one. The cycle
// pair differs only in sorted rounds (257 against 4097), the hypercube pair
// in bitmap rounds (7 on d=8 against 9 on d=12), so neither branch
// allocates per round. The protocol's Bootstrap, whose slice grows with the
// origin's degree, is not the engine's and is left out of the count.
func TestWarmRunAllocationsIndependentOfRounds(t *testing.T) {
	// warm returns the engine's allocations in a warm run on spec and how
	// many of the run's rounds group orders through the node bitmap.
	warm := func(spec string) (allocs float64, bitmapRounds int) {
		g := gen.MustBuild(spec, 1)
		e := fastengine.New(g)
		flood := core.MustNewFlood(g, 0)
		traced, err := e.Run(context.Background(), flood, engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range traced.Trace {
			if fastengine.BitmapRound(e, len(rec.Receivers())) {
				bitmapRounds++
			}
		}
		run := func() {
			if _, err := e.Run(context.Background(), flood, engine.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the arenas
		bootstrap := testing.AllocsPerRun(10, func() { flood.Bootstrap() })
		return testing.AllocsPerRun(10, run) - bootstrap, bitmapRounds
	}
	for _, pair := range []struct {
		short, long string
		bitmap      [2]int // bitmap rounds of the short and the long flood
	}{
		{"cycle:n=257", "cycle:n=4097", [2]int{0, 0}},
		{"hypercube:d=8", "hypercube:d=12", [2]int{7, 9}},
	} {
		small, smallBitmap := warm(pair.short)
		large, largeBitmap := warm(pair.long)
		if got := [2]int{smallBitmap, largeBitmap}; got != pair.bitmap {
			t.Fatalf("%s and %s take %v bitmap rounds, want %v", pair.short, pair.long, got, pair.bitmap)
		}
		t.Logf("a warm run's engine allocates %.0f times on %s and %.0f on %s", small, pair.short, large, pair.long)
		if large != small {
			t.Fatalf("a warm run's engine allocates %.0f times on %s, %.0f on %s; want equal", large, pair.long, small, pair.short)
		}
	}
}

// TestEngineReuse runs the same Engine repeatedly and across protocols: the
// arenas — including the seen bits of classic runs — must carry no state
// between runs.
func TestEngineReuse(t *testing.T) {
	g := gen.Lollipop(5, 30)
	e := fastengine.New(g)
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
	// Classic runs from different origin sets, twice over: each must see
	// only its own origins pre-marked.
	for i := 0; i < 2; i++ {
		for _, origins := range [][]graph.NodeID{{0}, {34}, {0, 1}, {3, 20}, {0, 7, 34}} {
			cl := classic.MustNewFlood(g, origins...)
			want, err := engine.Run(context.Background(), g, cl, engine.Options{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(context.Background(), cl, engine.Options{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !engine.EqualTraces(want.Trace, got.Trace) {
				t.Fatalf("pass %d: classic from %v on a reused engine: trace differs", i, origins)
			}
		}
	}
}

func TestMaxRoundsError(t *testing.T) {
	g := gen.Cycle(64)
	flood := core.MustNewFlood(g, 0)
	_, err := fastengine.Run(context.Background(), g, flood, engine.Options{MaxRounds: 3})
	if !errors.Is(err, engine.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	res, err := fastengine.Run(context.Background(), g, flood, engine.Options{MaxRounds: 64})
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
	_, err := fastengine.Run(context.Background(), g, flood, engine.Options{Observer: engine.ObserverFunc(func(r engine.RoundRecord) (bool, error) {
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

// misbehaved emits its bootstrap and per-node responses out of order and
// with duplicates, exercising the engine's normalisation fallback.
type misbehaved struct {
	g *graph.Graph
}

func (m misbehaved) Name() string { return "misbehaved" }

func (m misbehaved) Bootstrap() []engine.Send {
	nbrs := m.g.Neighbors(0)
	var sends []engine.Send
	for i := len(nbrs) - 1; i >= 0; i-- {
		sends = append(sends, engine.Send{From: 0, To: nbrs[i]})
		sends = append(sends, engine.Send{From: 0, To: nbrs[i]}) // duplicate
	}
	return sends
}

func (m misbehaved) NewNode(v graph.NodeID) engine.NodeAutomaton {
	nbrs := m.g.Neighbors(v)
	return func(_ int, senders []graph.NodeID) []graph.NodeID {
		// Reversed complement, with the first entry doubled.
		var out []graph.NodeID
		for i := len(nbrs) - 1; i >= 0; i-- {
			skip := false
			for _, s := range senders {
				if s == nbrs[i] {
					skip = true
				}
			}
			if !skip {
				out = append(out, nbrs[i])
			}
		}
		if len(out) > 0 {
			out = append(out, out[0])
		}
		return out
	}
}

func TestNormalizationFallback(t *testing.T) {
	g := gen.Cycle(9)
	proto := misbehaved{g: g}
	want, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fastengine.Run(context.Background(), g, proto, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualTraces(want.Trace, got.Trace) {
		t.Fatal("misbehaved protocol: fastengine trace differs from sequential")
	}
	if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages {
		t.Fatalf("misbehaved protocol: result %+v, want %+v", got, want)
	}
}
