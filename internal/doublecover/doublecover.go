// Package doublecover implements the analytical machinery behind the
// paper's general termination bound: amnesiac flooding on a graph G behaves
// exactly like classic (flag-based) flooding on the bipartite double cover
// of G.
//
// The bipartite double cover of G(V, E) has vertex set V x {0, 1} and edges
// {(u, p), (v, 1-p)} for every {u, v} in E. A walk of length L from an
// origin s to v in G corresponds to a path from (s, 0) to (v, L mod 2) in
// the cover, so the shortest even- and odd-length walks from the origin set
// S to v are plain multi-source BFS distances in the cover, every origin's
// even state at distance 0. Writing D[v][p] for those distances, the exact
// laws, for one origin or for a set whose members all send in round 1, are:
//
//   - node v receives M precisely in the rounds
//     { D[v][0], D[v][1] } minus {0} and unreachable entries;
//   - the directed edge u -> v carries M at round D[u][p]+1 for each
//     reachable parity p of u, except when D[v][1-p] == D[u][p]-1 (then v
//     itself delivered M to u in round D[u][p], and the complement rule
//     suppresses the reply);
//   - the flood terminates in round max over all finite D[v][p].
//
// Arena is the one statement of these laws: the termination analysis
// (internal/analysis) checks every amnesiac run against it, and Predict
// spells out the send schedule that experiment E11 and theory's
// CheckDoubleCoverExact compare byte for byte with simulated traces.
//
// Consequences visible in the paper: on a connected bipartite G only one
// parity class of the cover is reachable per node, every node receives once
// at d(s, v), and the flood stops at e(source) (Lemma 2.1). On a connected
// non-bipartite G both parities are reachable for every node, so every node
// receives exactly twice (the source: once), and the maximum cover distance
// is at most 2D+1 (Theorem 3.3). An origin set behaves like one origin on a
// bipartite G when all its members lie in one colour class; members in both
// classes create double receipts as an odd cycle does.
package doublecover

import (
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Infinite marks an unreachable parity (for example the odd parity of any
// node in a bipartite graph).
const Infinite = -1

// Parity indexes the two sheets of the cover: even walks (0) and odd
// walks (1).
type Parity int

// Sheet indices.
const (
	Even Parity = 0
	Odd  Parity = 1
)

// Arena is the parity BFS itself: plain multi-source BFS on the bipartite
// double cover, without materialising it, in flat int32 arenas that one
// Arena reuses across origin sets (no allocation once sized for the graph).
// Besides every node's parity distances, one Run yields the exact
// termination round, the eccentricity e(S) of the origin set S, and whether
// the window is exact. Predict is a thin wrapper over it, and the
// termination analysis keeps one per analyzer. Cover states are packed as
// 2v+p in an int32, which caps graphs at 2^30 nodes.
type Arena struct {
	dist    []int32 // dist[2v+p]: shortest parity-p walk from the origins to v, or Infinite
	queue   []int32 // cover states 2v+p in BFS order
	origins int     // distinct origins queued at distance 0
	rounds  int
	ecc     int
	exact   bool
}

// Run computes the parity distances from the origins over g, replacing the
// previous run's. Every distinct origin of g starts at distance 0 on the
// even sheet; origins outside g are ignored. It costs O(n+m): every cover
// state is queued at most once, and each node's adjacency is scanned once
// per reached parity.
func (a *Arena) Run(g *graph.Graph, origins ...graph.NodeID) {
	n := g.N()
	dist := slices.Grow(a.dist[:0], 2*n)[:2*n]
	queue := slices.Grow(a.queue[:0], 2*n)[:2*n]
	for i := range dist {
		dist[i] = Infinite
	}
	tail := 0
	for _, o := range origins {
		if s := int32(o) << 1; g.HasNode(o) && dist[s] == Infinite {
			dist[s] = 0
			queue[tail] = s
			tail++
		}
	}
	a.dist, a.origins = dist, tail
	a.rounds, a.ecc, a.exact = 0, 0, true
	if tail == 0 {
		a.queue = queue[:0]
		return
	}
	csr := g.CSR()
	ecc, exact := int32(0), true
	// Once all 2n states are queued, the remaining scans cannot find one,
	// so a connected non-bipartite graph stops early.
	for head := 0; head < tail && tail < len(queue); head++ {
		s := queue[head]
		next := dist[s] + 1
		flip := s&1 ^ 1
		for _, w := range csr.Row(graph.NodeID(s >> 1)) {
			t := int32(w)<<1 | flip
			if dist[t] != Infinite {
				continue
			}
			dist[t] = next
			queue[tail] = t
			tail++
			if dist[t^1] == Infinite {
				// First arrival at w: its BFS distance from the origins.
				// BFS order makes the last first arrival the eccentricity.
				ecc = next
			} else {
				exact = false // w is reached in both parities
			}
		}
	}
	a.queue = queue[:tail]
	a.rounds = int(dist[queue[tail-1]])
	a.ecc, a.exact = int(ecc), exact
}

// Dist returns the shortest parity-p walk length from the origins to v, or
// Infinite.
func (a *Arena) Dist(v graph.NodeID, p Parity) int {
	return int(a.dist[int(v)<<1|int(p)])
}

// Rounds returns the exact round in which the flood from the origins
// terminates: the maximum finite cover distance, or 0 when nothing is
// reachable (isolated origins).
func (a *Arena) Rounds() int { return a.rounds }

// Eccentricity returns e(S): the greatest BFS distance from the origin set
// to a node of its components, the multi-source BFS depth. For one origin
// it is e(source).
func (a *Arena) Eccentricity() int { return a.ecc }

// Exact reports whether no node is reached in both parities. Then every
// reached node receives M once, at its distance from the origins, and the
// flood ends at exactly e(S) (Lemma 2.1). For one origin it says whether the
// origin's component is bipartite; for a set it also requires the origins
// of each component to lie in one colour class. Components without an
// origin are not visited.
func (a *Arena) Exact() bool { return a.exact }

// Receipts returns the number of (node, round) receipts the flood makes:
// every reached cover state but the origins' round-0 possessions.
func (a *Arena) Receipts() int { return len(a.queue) - a.origins }

// Receives reports whether node v receives M in the given round, i.e.
// whether round is v's cover distance of the round's parity.
func (a *Arena) Receives(v graph.NodeID, round int) bool {
	return round > 0 && int(a.dist[int(v)<<1|round&1]) == round
}

// ReceiptRounds returns the rounds in which node v receives M, in
// increasing order: the finite, non-zero cover distances. An origin's
// round-0 "possession" is excluded (it is the paper's R_0, not a receipt).
func (a *Arena) ReceiptRounds(v graph.NodeID) []int {
	var out []int
	for _, d := range []int{a.Dist(v, Even), a.Dist(v, Odd)} {
		if d > 0 {
			out = append(out, d)
		}
	}
	if len(out) == 2 && out[0] > out[1] {
		out[0], out[1] = out[1], out[0]
	}
	return out
}

// Window decides the upper end of the paper's termination window for a
// run of the given rounds from origins of eccentricity ecc, and whether it
// certifies the run. Where the Arena finds the window exact (a bipartite
// component, or an origin set in one colour class) it is exactly ecc
// (Lemma 2.1) and needs no D. Otherwise it is ecc..2D+1 (Theorem 3.3), and
// D is not computed: for any lb <= D, upper = 2*max(lb, ecc)+1 is at most
// 2D+1, so a run within upper is within 2D+1. A run past upper is neither
// certified nor refuted: Window then returns (0, false), and no upper end
// is reported.
func Window(rounds, ecc, lb int, exact bool) (upper int, certified bool) {
	if exact {
		return ecc, true
	}
	if upper = 2*max(lb, ecc) + 1; rounds > upper {
		return 0, false
	}
	return upper, true
}

// Prediction is the complete forecast of an amnesiac flood, derived from
// one parity BFS and no simulation.
type Prediction struct {
	// Rounds is the exact termination round.
	Rounds int
	// Receipts[v] lists the exact rounds node v receives M, ascending.
	Receipts [][]int
	// TotalMessages is the exact number of point-to-point deliveries.
	TotalMessages int
	// Trace is the exact per-round send schedule, identical to the trace
	// the synchronous engines produce.
	Trace []engine.RoundRecord
}

// Predict forecasts the flood from the origins on g by applying the cover
// laws to one Arena run.
func Predict(g *graph.Graph, origins ...graph.NodeID) Prediction {
	var a Arena
	a.Run(g, origins...)
	pred := Prediction{
		Rounds:   a.Rounds(),
		Receipts: make([][]int, g.N()),
	}
	for v := range pred.Receipts {
		pred.Receipts[v] = a.ReceiptRounds(graph.NodeID(v))
	}

	// Reconstruct the send schedule: u -> v at round D[u][p]+1 for each
	// reachable parity p, unless v delivered M to u in round D[u][p]
	// (i.e. D[v][1-p] == D[u][p]-1 >= 0).
	byRound := map[int][]engine.Send{}
	for u := 0; u < g.N(); u++ {
		uid := graph.NodeID(u)
		for _, p := range []Parity{Even, Odd} {
			du := a.Dist(uid, p)
			if du == Infinite {
				continue
			}
			for _, v := range g.Neighbors(uid) {
				dv := a.Dist(v, 1-p)
				if dv != Infinite && dv == du-1 {
					continue // v was a deliverer of u's parity-p receipt
				}
				byRound[du+1] = append(byRound[du+1], engine.Send{From: uid, To: v})
			}
		}
	}
	rounds := make([]int, 0, len(byRound))
	for r := range byRound {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	for _, r := range rounds {
		sends := byRound[r]
		slices.SortFunc(sends, func(a, b engine.Send) int {
			if a.From != b.From {
				return int(a.From) - int(b.From)
			}
			return int(a.To) - int(b.To)
		})
		pred.Trace = append(pred.Trace, engine.RoundRecord{Round: r, Sends: sends})
		pred.TotalMessages += len(sends)
	}
	return pred
}

// SecondReceivers returns the nodes predicted to receive M twice — exactly
// the nodes with both parities reachable at positive distance. For one
// origin on a connected bipartite graph this is empty; on a connected
// non-bipartite graph it is every node except possibly the origin.
func (p Prediction) SecondReceivers() []graph.NodeID {
	var out []graph.NodeID
	for v, rounds := range p.Receipts {
		if len(rounds) == 2 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
