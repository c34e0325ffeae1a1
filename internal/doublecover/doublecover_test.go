package doublecover_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

// cover materialises the bipartite double cover as a concrete graph:
// vertex (v, p) becomes node v + p*n. It is always bipartite; it is
// connected iff g is connected and non-bipartite (for bipartite g it splits
// into two copies of g). The tests compare the Arena against BFS on it.
func cover(g *graph.Graph) *graph.Graph {
	n := g.N()
	b := graph.NewBuilder(2 * n).Name(fmt.Sprintf("doubleCover(%s)", g.Name()))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V+graph.NodeID(n))
		b.AddEdge(e.V, e.U+graph.NodeID(n))
	}
	return b.MustBuild()
}

// coverNode maps a (node, parity) pair of g to its node ID in cover(g).
func coverNode(g *graph.Graph, v graph.NodeID, p doublecover.Parity) graph.NodeID {
	return v + graph.NodeID(int(p)*g.N())
}

// coverDist is the oracle for an Arena run: multi-source BFS on the
// materialised cover from every origin's even state, as [v][parity].
func coverDist(g *graph.Graph, origins ...graph.NodeID) [][2]int {
	starts := make([]graph.NodeID, 0, len(origins))
	for _, o := range origins {
		if g.HasNode(o) {
			starts = append(starts, coverNode(g, o, doublecover.Even))
		}
	}
	flat := algo.BFSMulti(cover(g), starts)
	out := make([][2]int, g.N())
	for v := range out {
		for _, p := range []doublecover.Parity{doublecover.Even, doublecover.Odd} {
			out[v][p] = flat[coverNode(g, graph.NodeID(v), p)]
		}
	}
	return out
}

// arenaDist copies an Arena run's distances out as [v][parity].
func arenaDist(a *doublecover.Arena, n int) [][2]int {
	out := make([][2]int, n)
	for v := range out {
		out[v] = [2]int{a.Dist(graph.NodeID(v), doublecover.Even), a.Dist(graph.NodeID(v), doublecover.Odd)}
	}
	return out
}

func TestBFSTriangle(t *testing.T) {
	g := gen.Cycle(3)
	var a doublecover.Arena
	a.Run(g, 1) // source b
	want := [][2]int{
		{2, 1}, // a: odd walk b-a, shortest even walk b-c-a
		{0, 3}, // b
		{2, 1}, // c
	}
	if got := arenaDist(&a, g.N()); !reflect.DeepEqual(got, want) {
		t.Fatalf("D = %v, want %v", got, want)
	}
	if a.Rounds() != 3 {
		t.Fatalf("termination = %d, want 3 (Figure 2)", a.Rounds())
	}
	if got := a.ReceiptRounds(1); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("source receipts = %v, want [3]", got)
	}
	if got := a.ReceiptRounds(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("a receipts = %v, want [1 2]", got)
	}
}

func TestBFSBipartiteSingleParity(t *testing.T) {
	g := gen.Cycle(6)
	var a doublecover.Arena
	a.Run(g, 0)
	dist := algo.BFS(g, 0)
	for v := 0; v < 6; v++ {
		rounds := a.ReceiptRounds(graph.NodeID(v))
		if v == 0 {
			if len(rounds) != 0 {
				t.Fatalf("source receipts = %v", rounds)
			}
			continue
		}
		if len(rounds) != 1 {
			t.Fatalf("node %d receipts = %v, want single receipt", v, rounds)
		}
		if rounds[0] != dist[v] {
			t.Fatalf("node %d receipt %d != BFS distance %d", v, rounds[0], dist[v])
		}
	}
	if a.Rounds() != 3 || !a.Exact() {
		t.Fatalf("termination = %d, exact %t, want e(source) = 3 exactly", a.Rounds(), a.Exact())
	}
}

func TestBFSInvalidSource(t *testing.T) {
	var a doublecover.Arena
	for _, origins := range [][]graph.NodeID{{99}, nil} {
		a.Run(gen.Path(3), origins...)
		if a.Rounds() != 0 || a.Receipts() != 0 || a.Eccentricity() != 0 {
			t.Fatalf("origins %v: rounds %d, receipts %d, e %d, want nothing reachable",
				origins, a.Rounds(), a.Receipts(), a.Eccentricity())
		}
	}
}

func TestReachedAndSecondReceivers(t *testing.T) {
	g := gen.Cycle(5)
	var a doublecover.Arena
	a.Run(g, 0)
	if a.Dist(2, doublecover.Even) == doublecover.Infinite || a.Dist(2, doublecover.Odd) == doublecover.Infinite {
		t.Fatal("odd cycle must reach both parities everywhere")
	}
	second := doublecover.Predict(g, 0).SecondReceivers()
	// On C5 the source's odd distance is the shortest odd closed walk, 5,
	// and its even distance 0 is no receipt: it receives once, the other
	// four nodes twice.
	if len(second) != 4 {
		t.Fatalf("second receivers = %v, want the 4 non-source nodes", second)
	}
	if len(doublecover.Predict(gen.Grid(3, 4), 0).SecondReceivers()) != 0 {
		t.Fatal("bipartite graph predicted double receipts")
	}
	// Origins in both colour classes of a bipartite graph: every node is
	// reached in both parities, as on an odd cycle, so the two non-origins
	// receive twice.
	if got := doublecover.Predict(gen.Path(4), 0, 1).SecondReceivers(); !slices.Equal(got, []graph.NodeID{2, 3}) {
		t.Fatalf("mixed-class origins on P4: second receivers = %v, want [2 3]", got)
	}
}

func TestCoverShape(t *testing.T) {
	g := gen.Cycle(3)
	c := cover(g)
	if c.N() != 6 || c.M() != 6 {
		t.Fatalf("cover of C3 = %s, want 6 nodes 6 edges", c)
	}
	if !algo.IsBipartite(c) {
		t.Fatal("double cover is not bipartite")
	}
	// The double cover of C3 is C6: connected, 2-regular.
	if !algo.Connected(c) {
		t.Fatal("cover of non-bipartite connected graph must be connected")
	}
	for v := 0; v < c.N(); v++ {
		if c.Degree(graph.NodeID(v)) != 2 {
			t.Fatalf("cover degree(%d) = %d, want 2", v, c.Degree(graph.NodeID(v)))
		}
	}
}

func TestCoverOfBipartiteSplits(t *testing.T) {
	c := cover(gen.Path(4))
	if algo.Connected(c) {
		t.Fatal("cover of a bipartite graph must be disconnected (two copies)")
	}
	comps := algo.Components(c)
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 4 {
		t.Fatalf("cover components = %v, want two copies of P4", comps)
	}
}

func TestCoverNodeMapping(t *testing.T) {
	g := gen.Path(5)
	if coverNode(g, 3, doublecover.Even) != 3 {
		t.Fatal("even sheet mapping wrong")
	}
	if coverNode(g, 3, doublecover.Odd) != 8 {
		t.Fatal("odd sheet mapping wrong")
	}
}

// drawOrigins draws one to three origins of g, repeats allowed.
func drawOrigins(g *graph.Graph, rng *rand.Rand) []graph.NodeID {
	origins := make([]graph.NodeID, 1+rng.Intn(3))
	for i := range origins {
		origins[i] = graph.NodeID(rng.Intn(g.N()))
	}
	return origins
}

func TestCoverDistancesMatchInlineBFS(t *testing.T) {
	// Property: multi-source BFS on the materialised cover equals the
	// inline parity BFS, for one origin and for origin sets.
	var a doublecover.Arena
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(30), 0.1, rng)
		origins := drawOrigins(g, rng)
		a.Run(g, origins...)
		return reflect.DeepEqual(arenaDist(&a, g.N()), coverDist(g, origins...))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// floodTraced runs amnesiac flooding on g from the origins, traced.
func floodTraced(t *testing.T, g *graph.Graph, origins ...graph.NodeID) engine.Result {
	t.Helper()
	res, err := engine.Run(context.Background(), g, core.MustNewFlood(g, origins...), engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPredictFigure2Exactly(t *testing.T) {
	g := gen.Cycle(3)
	pred := doublecover.Predict(g, 1)
	if pred.Rounds != 3 || pred.TotalMessages != 6 {
		t.Fatalf("prediction = %d rounds %d messages, want 3/6", pred.Rounds, pred.TotalMessages)
	}
	res := floodTraced(t, g, 1)
	if !engine.EqualTraces(pred.Trace, res.Trace) {
		t.Fatalf("predicted trace %v != simulated %v", pred.Trace, res.Trace)
	}
}

func TestPredictMatchesSimulationEverywhere(t *testing.T) {
	// The package's headline law: predicted traces are byte-identical to
	// simulated ones, on bipartite and non-bipartite random graphs alike,
	// from one origin or from several that all send in round 1.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		var err error
		switch seed % 3 {
		case 0:
			g = gen.RandomConnected(2+rng.Intn(40), 0.08, rng)
		case 1:
			g = gen.RandomNonBipartite(3+rng.Intn(40), 0.08, rng)
		default:
			g, err = gen.Connectify(gen.RandomBipartite(2+rng.Intn(15), 2+rng.Intn(15), 0.2, rng), rng)
		}
		if err != nil {
			return false
		}
		origins := drawOrigins(g, rng)
		pred := doublecover.Predict(g, origins...)
		res := floodTraced(t, g, origins...)
		if pred.Rounds != res.Rounds || pred.TotalMessages != res.TotalMessages {
			return false
		}
		if !engine.EqualTraces(pred.Trace, res.Trace) {
			return false
		}
		for v := 0; v < g.N(); v++ {
			var got []int
			for _, rec := range res.Trace {
				if slices.Contains(rec.Receivers(), graph.NodeID(v)) {
					got = append(got, rec.Round)
				}
			}
			if !reflect.DeepEqual(pred.Receipts[v], got) &&
				!(len(pred.Receipts[v]) == 0 && len(got) == 0) {
				return false
			}
			// On a connected non-bipartite graph both parities reach every
			// node: an origin receives once, every other node twice.
			if want := 2; seed%3 == 1 {
				if slices.Contains(origins, graph.NodeID(v)) {
					want = 1
				}
				if len(got) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictDisconnected(t *testing.T) {
	g, err := graph.FromEdges("", 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	pred := doublecover.Predict(g, 0)
	if pred.Rounds != 1 || pred.TotalMessages != 1 {
		t.Fatalf("disconnected prediction = %+v", pred)
	}
	if len(pred.Receipts[2]) != 0 || len(pred.Receipts[3]) != 0 {
		t.Fatal("unreachable nodes predicted to receive")
	}
}

func TestPredictIsolatedSource(t *testing.T) {
	g, err := graph.FromEdges("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := doublecover.Predict(g, 0)
	if pred.Rounds != 0 || pred.TotalMessages != 0 || len(pred.Trace) != 0 {
		t.Fatalf("isolated source prediction = %+v", pred)
	}
}

// TestArenaReuseMatchesFreshRuns: one Arena serving many origin sets, on
// connected and disconnected graphs, reports what BFS on the materialised
// cover and the reference algorithms report: the distances, e(S), whether
// some node is reached in both parities, the receipt count and the
// termination round. For one origin, Exact is the bipartiteness of its
// component.
func TestArenaReuseMatchesFreshRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd, err := graph.FromEdges("", 7, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{odd, gen.Cycle(9), gen.Grid(3, 4), gen.Path(1)}
	for i := 0; i < 12; i++ {
		graphs = append(graphs, gen.RandomGNP(2+rng.Intn(40), 0.06, rng))
	}
	var a doublecover.Arena
	for _, g := range graphs {
		var sets [][]graph.NodeID
		for v := g.N() - 1; v >= 0; v-- {
			sets = append(sets, []graph.NodeID{graph.NodeID(v)})
		}
		for i := 0; i < 8; i++ {
			sets = append(sets, drawOrigins(g, rng))
		}
		for _, origins := range sets {
			a.Run(g, origins...)
			fresh := coverDist(g, origins...)
			// The termination round is the greatest finite cover distance,
			// and the window is exact when no node has two finite ones.
			last, receipts, exact := 0, 0, true
			for u, d := range fresh {
				last = max(last, d[0], d[1])
				exact = exact && (d[0] == doublecover.Infinite || d[1] == doublecover.Infinite)
				var rounds []int
				for _, p := range []doublecover.Parity{doublecover.Even, doublecover.Odd} {
					if got := a.Dist(graph.NodeID(u), p); got != d[p] {
						t.Fatalf("%s from %v: Dist(%d, %d) = %d, cover BFS %d", g, origins, u, p, got, d[p])
					}
					if d[p] > 0 {
						rounds = append(rounds, d[p])
					}
				}
				receipts += len(rounds)
				for r := 0; r <= last+1; r++ {
					if got, want := a.Receives(graph.NodeID(u), r), slices.Contains(rounds, r); got != want {
						t.Fatalf("%s from %v: Receives(%d, %d) = %t, want %t", g, origins, u, r, got, want)
					}
				}
			}
			if len(origins) == 1 {
				// One origin's component is bipartite iff no edge in it
				// joins two nodes at the same BFS distance.
				bfs, bipartite := algo.BFS(g, origins[0]), true
				for _, e := range g.Edges() {
					bipartite = bipartite && (bfs[e.U] == algo.Unreachable || bfs[e.U] != bfs[e.V])
				}
				if bipartite != exact {
					t.Fatalf("%s from %v: component bipartite %t, cover BFS exact %t", g, origins, bipartite, exact)
				}
			}
			ecc := slices.Max(algo.BFSMulti(g, origins))
			if a.Rounds() != last || a.Eccentricity() != ecc || a.Exact() != exact || a.Receipts() != receipts {
				t.Fatalf("%s from %v: rounds=%d ecc=%d exact=%t receipts=%d, want %d %d %t %d", g, origins,
					a.Rounds(), a.Eccentricity(), a.Exact(), a.Receipts(), last, ecc, exact, receipts)
			}
		}
	}
}

// TestArenaRunDoesNotAllocate: a warmed Arena reruns without allocating,
// from one origin or from several.
func TestArenaRunDoesNotAllocate(t *testing.T) {
	g := gen.MustBuild("gnp:n=512,p=0.02", 1)
	var a doublecover.Arena
	a.Run(g, 0)
	src := graph.NodeID(0)
	origins := make([]graph.NodeID, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		src = (src + 7) % graph.NodeID(g.N())
		a.Run(g, src)
		for i := range origins {
			origins[i] = (src + graph.NodeID(100*i)) % graph.NodeID(g.N())
		}
		a.Run(g, origins...)
	}); allocs != 0 {
		t.Fatalf("warm Arena.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestWindow pins the window decision: exactly e(S) where the Arena finds
// it exact, 2*max(lb, e)+1 otherwise, and no upper end for a run past it.
func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		rounds, ecc, lb int
		exact           bool
		upper           int
		certified       bool
	}{
		{rounds: 4, ecc: 4, lb: 9, exact: true, upper: 4, certified: true},
		{rounds: 5, ecc: 4, lb: 0, exact: true, upper: 4, certified: true},
		{rounds: 9, ecc: 4, lb: 3, upper: 9, certified: true},
		{rounds: 9, ecc: 2, lb: 4, upper: 9, certified: true},
		{rounds: 6, ecc: 2, lb: 2},
	} {
		upper, certified := doublecover.Window(tc.rounds, tc.ecc, tc.lb, tc.exact)
		if upper != tc.upper || certified != tc.certified {
			t.Errorf("Window(%d, %d, %d, %t) = %d, %t, want %d, %t", tc.rounds, tc.ecc, tc.lb, tc.exact,
				upper, certified, tc.upper, tc.certified)
		}
	}
}
