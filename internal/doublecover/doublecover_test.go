package doublecover_test

import (
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

func TestBFSTriangle(t *testing.T) {
	g := gen.Cycle(3)
	d := doublecover.BFS(g, 1) // source b
	want := [][2]int{
		{2, 1}, // a: even walk b-a-... length 2 (b->c->a? no: b-a-b? even walk b->a->b->a length... shortest even walk to a is 2 via b->c->a), odd walk length 1
		{0, 3}, // b
		{2, 1}, // c
	}
	if !reflect.DeepEqual(d.D, want) {
		t.Fatalf("D = %v, want %v", d.D, want)
	}
	if d.TerminationRound() != 3 {
		t.Fatalf("termination = %d, want 3 (Figure 2)", d.TerminationRound())
	}
	if got := d.ReceiptRounds(1); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("source receipts = %v, want [3]", got)
	}
	if got := d.ReceiptRounds(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("a receipts = %v, want [1 2]", got)
	}
}

func TestBFSBipartiteSingleParity(t *testing.T) {
	g := gen.Cycle(6)
	d := doublecover.BFS(g, 0)
	for v := 0; v < 6; v++ {
		rounds := d.ReceiptRounds(graph.NodeID(v))
		if v == 0 {
			if len(rounds) != 0 {
				t.Fatalf("source receipts = %v", rounds)
			}
			continue
		}
		if len(rounds) != 1 {
			t.Fatalf("node %d receipts = %v, want single receipt", v, rounds)
		}
		if dist := algo.BFS(g, 0); rounds[0] != dist[v] {
			t.Fatalf("node %d receipt %d != BFS distance %d", v, rounds[0], dist[v])
		}
	}
	if d.TerminationRound() != 3 {
		t.Fatalf("termination = %d, want e(source) = 3", d.TerminationRound())
	}
}

func TestBFSInvalidSource(t *testing.T) {
	d := doublecover.BFS(gen.Path(3), 99)
	if d.TerminationRound() != 0 {
		t.Fatal("invalid source produced reachable nodes")
	}
}

func TestReachedAndSecondReceivers(t *testing.T) {
	g := gen.Cycle(5)
	d := doublecover.BFS(g, 0)
	if !d.Reached(2, doublecover.Even) || !d.Reached(2, doublecover.Odd) {
		t.Fatal("odd cycle must reach both parities everywhere")
	}
	second := doublecover.Predict(g, 0).SecondReceivers()
	// On C5 every node including the source? Source receipts: D[0][1] =
	// shortest odd closed walk = 5, D[0][0] = 0 (excluded) -> one receipt.
	if len(second) != 4 {
		t.Fatalf("second receivers = %v, want the 4 non-source nodes", second)
	}
	if len(doublecover.Predict(gen.Grid(3, 4), 0).SecondReceivers()) != 0 {
		t.Fatal("bipartite graph predicted double receipts")
	}
}

func TestCoverShape(t *testing.T) {
	g := gen.Cycle(3)
	cover := doublecover.Cover(g)
	if cover.N() != 6 || cover.M() != 6 {
		t.Fatalf("cover of C3 = %s, want 6 nodes 6 edges", cover)
	}
	if !algo.IsBipartite(cover) {
		t.Fatal("double cover is not bipartite")
	}
	// The double cover of C3 is C6: connected, 2-regular.
	if !algo.Connected(cover) {
		t.Fatal("cover of non-bipartite connected graph must be connected")
	}
	for v := 0; v < cover.N(); v++ {
		if cover.Degree(graph.NodeID(v)) != 2 {
			t.Fatalf("cover degree(%d) = %d, want 2", v, cover.Degree(graph.NodeID(v)))
		}
	}
}

func TestCoverOfBipartiteSplits(t *testing.T) {
	g := gen.Path(4)
	cover := doublecover.Cover(g)
	if algo.Connected(cover) {
		t.Fatal("cover of a bipartite graph must be disconnected (two copies)")
	}
	comps := algo.Components(cover)
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 4 {
		t.Fatalf("cover components = %v, want two copies of P4", comps)
	}
}

func TestCoverNodeMapping(t *testing.T) {
	g := gen.Path(5)
	if doublecover.CoverNode(g, 3, doublecover.Even) != 3 {
		t.Fatal("even sheet mapping wrong")
	}
	if doublecover.CoverNode(g, 3, doublecover.Odd) != 8 {
		t.Fatal("odd sheet mapping wrong")
	}
}

func TestCoverDistancesMatchInlineBFS(t *testing.T) {
	// Property: BFS on the materialised cover equals the inline parity
	// BFS.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(30), 0.1, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		inline := doublecover.BFS(g, src)
		cover := doublecover.Cover(g)
		coverDist := algo.BFS(cover, doublecover.CoverNode(g, src, doublecover.Even))
		for v := 0; v < g.N(); v++ {
			for _, p := range []doublecover.Parity{doublecover.Even, doublecover.Odd} {
				want := coverDist[doublecover.CoverNode(g, graph.NodeID(v), p)]
				if inline.D[v][p] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictFigure2Exactly(t *testing.T) {
	g := gen.Cycle(3)
	pred := doublecover.Predict(g, 1)
	if pred.Rounds != 3 || pred.TotalMessages != 6 {
		t.Fatalf("prediction = %d rounds %d messages, want 3/6", pred.Rounds, pred.TotalMessages)
	}
	rep, err := core.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualTraces(pred.Trace, rep.Result.Trace) {
		t.Fatalf("predicted trace %v != simulated %v", pred.Trace, rep.Result.Trace)
	}
}

func TestPredictMatchesSimulationEverywhere(t *testing.T) {
	// The package's headline law: predicted traces are byte-identical to
	// simulated ones, on bipartite and non-bipartite random graphs alike.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = gen.RandomConnected(2+rng.Intn(40), 0.08, rng)
		case 1:
			g = gen.RandomNonBipartite(3+rng.Intn(40), 0.08, rng)
		default:
			g = gen.Connectify(gen.RandomBipartite(2+rng.Intn(15), 2+rng.Intn(15), 0.2, rng), rng)
		}
		src := graph.NodeID(rng.Intn(g.N()))
		pred := doublecover.Predict(g, src)
		rep, err := core.Run(g, src)
		if err != nil {
			return false
		}
		if pred.Rounds != rep.Rounds() || pred.TotalMessages != rep.TotalMessages() {
			return false
		}
		if !engine.EqualTraces(pred.Trace, rep.Result.Trace) {
			return false
		}
		for v := 0; v < g.N(); v++ {
			var got []int
			for i, set := range rep.RoundSets {
				for _, x := range set {
					if x == graph.NodeID(v) {
						got = append(got, i+1)
					}
				}
			}
			if !reflect.DeepEqual(pred.Receipts[v], got) &&
				!(len(pred.Receipts[v]) == 0 && len(got) == 0) {
				return false
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

// TestArenaReuseMatchesFreshRuns: one Arena serving many sources, on
// connected and disconnected graphs, reports what a fresh BFS and the
// reference algorithms report: the distances, e(source), the bipartiteness
// of the source's component, the receipt count and the termination round.
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
		for v := g.N() - 1; v >= 0; v-- {
			src := graph.NodeID(v)
			a.Run(g, src)
			fresh := doublecover.BFS(g, src)
			// The termination round is the greatest finite cover distance.
			last := 0
			for _, d := range fresh.D {
				last = max(last, d[0], d[1])
			}
			receipts := 0
			for u := 0; u < g.N(); u++ {
				for _, p := range []doublecover.Parity{doublecover.Even, doublecover.Odd} {
					if got := a.Dist(graph.NodeID(u), p); got != fresh.D[u][p] {
						t.Fatalf("%s from %d: Dist(%d, %d) = %d, fresh BFS %d", g, src, u, p, got, fresh.D[u][p])
					}
				}
				rounds := fresh.ReceiptRounds(graph.NodeID(u))
				receipts += len(rounds)
				for r := 0; r <= last+1; r++ {
					if got, want := a.Receives(graph.NodeID(u), r), slices.Contains(rounds, r); got != want {
						t.Fatalf("%s from %d: Receives(%d, %d) = %t, want %t", g, src, u, r, got, want)
					}
				}
			}
			// The source's component is bipartite iff no edge in it joins
			// two nodes at the same BFS distance.
			bfs, bipartite := algo.BFS(g, src), true
			for _, e := range g.Edges() {
				bipartite = bipartite && (bfs[e.U] == algo.Unreachable || bfs[e.U] != bfs[e.V])
			}
			if a.Rounds() != last || a.Eccentricity() != algo.Eccentricity(g, src) ||
				a.Bipartite() != bipartite || a.Receipts() != receipts {
				t.Fatalf("%s from %d: rounds=%d ecc=%d bipartite=%t receipts=%d, want %d %d %t %d", g, src,
					a.Rounds(), a.Eccentricity(), a.Bipartite(), a.Receipts(),
					last, algo.Eccentricity(g, src), bipartite, receipts)
			}
		}
	}
}

// TestArenaRunDoesNotAllocate: a warmed Arena reruns without allocating.
func TestArenaRunDoesNotAllocate(t *testing.T) {
	g := gen.MustBuild("gnp:n=512,p=0.02", 1)
	var a doublecover.Arena
	a.Run(g, 0)
	src := graph.NodeID(0)
	if allocs := testing.AllocsPerRun(20, func() {
		src = (src + 7) % graph.NodeID(g.N())
		a.Run(g, src)
	}); allocs != 0 {
		t.Fatalf("warm Arena.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestWindow pins the window decision: exactly e(source) on a bipartite
// component, 2*max(lb, e)+1 otherwise, and no upper end for a run past it.
func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		rounds, ecc, lb int
		bipartite       bool
		upper           int
		certified       bool
	}{
		{rounds: 4, ecc: 4, lb: 9, bipartite: true, upper: 4, certified: true},
		{rounds: 5, ecc: 4, lb: 0, bipartite: true, upper: 4, certified: true},
		{rounds: 9, ecc: 4, lb: 3, upper: 9, certified: true},
		{rounds: 9, ecc: 2, lb: 4, upper: 9, certified: true},
		{rounds: 6, ecc: 2, lb: 2},
	} {
		upper, certified := doublecover.Window(tc.rounds, tc.ecc, tc.lb, tc.bipartite)
		if upper != tc.upper || certified != tc.certified {
			t.Errorf("Window(%d, %d, %d, %t) = %d, %t, want %d, %t", tc.rounds, tc.ecc, tc.lb, tc.bipartite,
				upper, certified, tc.upper, tc.certified)
		}
	}
}
