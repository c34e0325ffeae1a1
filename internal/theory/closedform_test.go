package theory_test

import (
	"testing"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// Closed-form termination times for parametrised families, derived from the
// double-cover law and checked against the simulator. These pin the exact
// constants the paper's bounds hide.

func runRounds(t *testing.T, g *graph.Graph, src graph.NodeID) int {
	t.Helper()
	res, _ := run(t, g, src)
	return res.Rounds
}

func TestClosedFormPath(t *testing.T) {
	// Path P_n from node i: max(i, n-1-i) rounds (pure eccentricity).
	for _, n := range []int{2, 3, 5, 8, 13} {
		g := gen.Path(n)
		for i := 0; i < n; i++ {
			want := i
			if n-1-i > want {
				want = n - 1 - i
			}
			if got := runRounds(t, g, graph.NodeID(i)); got != want {
				t.Errorf("P%d from %d: %d rounds, want %d", n, i, got, want)
			}
		}
	}
}

func TestClosedFormEvenCycle(t *testing.T) {
	// Even cycle C_n: n/2 rounds from any node.
	for _, n := range []int{4, 6, 10, 20} {
		g := gen.Cycle(n)
		for _, src := range []graph.NodeID{0, graph.NodeID(n / 3)} {
			if got := runRounds(t, g, src); got != n/2 {
				t.Errorf("C%d from %d: %d rounds, want %d", n, src, got, n/2)
			}
		}
	}
}

func TestClosedFormOddCycle(t *testing.T) {
	// Odd cycle C_n: exactly n rounds = 2D+1 from any node.
	for _, n := range []int{3, 5, 9, 21} {
		g := gen.Cycle(n)
		for _, src := range []graph.NodeID{0, graph.NodeID(n / 2)} {
			if got := runRounds(t, g, src); got != n {
				t.Errorf("C%d from %d: %d rounds, want %d", n, src, got, n)
			}
		}
	}
}

func TestClosedFormClique(t *testing.T) {
	// Clique K_n (n >= 3): exactly 3 rounds = 2D+1. The echo needs one
	// round out, one round of cross-exchange, one round back.
	for _, n := range []int{3, 4, 7, 16} {
		g := gen.Complete(n)
		if got := runRounds(t, g, 0); got != 3 {
			t.Errorf("K%d: %d rounds, want 3", n, got)
		}
	}
	// K2 is bipartite: 1 round.
	if got := runRounds(t, gen.Complete(2), 0); got != 1 {
		t.Errorf("K2: %d rounds, want 1", got)
	}
}

func TestClosedFormStar(t *testing.T) {
	// Star: 1 round from the hub, 2 from a leaf.
	g := gen.Star(9)
	if got := runRounds(t, g, 0); got != 1 {
		t.Errorf("star hub: %d rounds, want 1", got)
	}
	if got := runRounds(t, g, 5); got != 2 {
		t.Errorf("star leaf: %d rounds, want 2", got)
	}
}

func TestClosedFormCompleteBipartite(t *testing.T) {
	// K_{a,b} with a,b >= 2: 2 rounds from any node (eccentricity 2).
	for _, ab := range [][2]int{{2, 2}, {3, 5}, {4, 4}} {
		g := gen.CompleteBipartite(ab[0], ab[1])
		if got := runRounds(t, g, 0); got != 2 {
			t.Errorf("K_{%d,%d}: %d rounds, want 2", ab[0], ab[1], got)
		}
	}
	// K_{1,b} is the star.
	if got := runRounds(t, gen.CompleteBipartite(1, 4), 0); got != 1 {
		t.Errorf("K_{1,4} from the hub: %d rounds, want 1", got)
	}
}

func TestClosedFormHypercube(t *testing.T) {
	// Hypercube Q_d: exactly d rounds from any node.
	for d := 1; d <= 7; d++ {
		g := gen.Hypercube(d)
		if got := runRounds(t, g, 0); got != d {
			t.Errorf("Q%d: %d rounds, want %d", d, got, d)
		}
	}
}

func TestClosedFormWheel(t *testing.T) {
	// Wheel W_n (n >= 5 nodes): 3 rounds from the hub.
	for _, n := range []int{5, 9, 17} {
		g := gen.Wheel(n)
		if got := runRounds(t, g, 0); got != 3 {
			t.Errorf("W%d from hub: %d rounds, want 3", n, got)
		}
	}
}

func TestClosedFormGrid(t *testing.T) {
	// Grid from a corner: (rows-1)+(cols-1) rounds.
	for _, rc := range [][2]int{{2, 2}, {3, 4}, {5, 5}, {2, 9}} {
		rows, cols := rc[0], rc[1]
		g := gen.Grid(rows, cols)
		want := rows + cols - 2
		if got := runRounds(t, g, 0); got != want {
			t.Errorf("grid %dx%d corner: %d rounds, want %d", rows, cols, got, want)
		}
	}
}

func TestClosedFormPetersen(t *testing.T) {
	// Petersen graph: 5 rounds = 2D+1 from any node (vertex-transitive).
	g := gen.Petersen()
	for src := 0; src < 10; src++ {
		if got := runRounds(t, g, graph.NodeID(src)); got != 5 {
			t.Errorf("petersen from %d: %d rounds, want 5", src, got)
		}
	}
}

func TestClosedFormTorus(t *testing.T) {
	// Even x even torus: bipartite, rounds = rows/2 + cols/2.
	cases := []struct {
		rows, cols, want int
	}{
		{4, 4, 4},
		{4, 6, 5},
		{6, 6, 6},
	}
	for _, tc := range cases {
		g := gen.Torus(tc.rows, tc.cols)
		if got := runRounds(t, g, 0); got != tc.want {
			t.Errorf("torus %dx%d: %d rounds, want %d", tc.rows, tc.cols, got, tc.want)
		}
	}
}
