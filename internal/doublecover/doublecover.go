// Package doublecover implements the analytical machinery behind the
// paper's general termination bound: amnesiac flooding on a graph G behaves
// exactly like classic (flag-based) flooding on the bipartite double cover
// of G.
//
// The bipartite double cover of G(V, E) has vertex set V x {0, 1} and edges
// {(u, p), (v, 1-p)} for every {u, v} in E. A walk of length L from the
// source s to v in G corresponds to a path from (s, 0) to (v, L mod 2) in
// the cover, so the shortest even- and odd-length walks from s to v are
// plain BFS distances in the cover. Writing D[v][p] for those distances,
// the exact laws are:
//
//   - node v receives M precisely in the rounds
//     { D[v][0], D[v][1] } minus {0} and unreachable entries;
//   - the directed edge u -> v carries M at round D[u][p]+1 for each
//     reachable parity p of u, except when D[v][1-p] == D[u][p]-1 (then v
//     itself delivered M to u in round D[u][p], and the complement rule
//     suppresses the reply);
//   - the flood terminates in round max over all finite D[v][p].
//
// Package theory re-exports these as run checks, and experiment E11
// verifies the predicted traces are byte-identical to simulated ones on
// every family in the suite.
//
// Consequences visible in the paper: on a connected bipartite G only one
// parity class of the cover is reachable per node, every node receives once
// at d(s, v), and the flood stops at e(source) (Lemma 2.1). On a connected
// non-bipartite G both parities are reachable for every node, so every node
// receives exactly twice (the source: once), and the maximum cover distance
// is at most 2D+1 (Theorem 3.3).
package doublecover

import (
	"fmt"
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

// Distances holds, for one source s, the shortest walk lengths of each
// parity to every node: D[v][Even] and D[v][Odd]. D[s][Even] is 0.
type Distances struct {
	Source graph.NodeID
	D      [][2]int
	rounds int
}

// BFS computes the parity-BFS distances from source over g (an Arena run,
// copied out).
func BFS(g *graph.Graph, source graph.NodeID) Distances {
	var a Arena
	a.Run(g, source)
	dist := Distances{Source: source, D: make([][2]int, g.N()), rounds: a.Rounds()}
	for v := range dist.D {
		dist.D[v] = [2]int{a.Dist(graph.NodeID(v), Even), a.Dist(graph.NodeID(v), Odd)}
	}
	return dist
}

// Reached reports whether node v is reachable with parity p.
func (d Distances) Reached(v graph.NodeID, p Parity) bool {
	return d.D[v][p] != Infinite
}

// ReceiptRounds returns the rounds in which node v receives M, in
// increasing order: the finite, non-zero cover distances. The source's
// round-0 "possession" is excluded (it is the paper's R_0, not a receipt).
func (d Distances) ReceiptRounds(v graph.NodeID) []int {
	return receiptRounds(d.D[v][Even], d.D[v][Odd])
}

// TerminationRound returns the exact round in which the flood from the
// source terminates: the maximum finite cover distance, or 0 when nothing
// is reachable (isolated source).
func (d Distances) TerminationRound() int { return d.rounds }

// Arena is the parity BFS itself: plain BFS on the bipartite double cover,
// without materialising it, in flat int32 arenas that one Arena reuses
// across sources (no allocation once sized for the graph). Besides every
// node's parity distances, one Run yields the exact termination round, the
// source's eccentricity and the bipartiteness of its component. BFS and
// Predict are thin wrappers over it, and the termination analysis keeps one
// per analyzer. Cover states are packed as 2v+p in an int32, which caps
// graphs at 2^30 nodes.
type Arena struct {
	dist      []int32 // dist[2v+p]: shortest parity-p walk from the source to v, or Infinite
	queue     []int32 // cover states 2v+p in BFS order
	rounds    int
	ecc       int
	bipartite bool
}

// Run computes the parity distances from source over g, replacing the
// previous run's. It costs O(n+m): every cover state is queued at most
// once, and each node's adjacency is scanned once per reached parity.
func (a *Arena) Run(g *graph.Graph, source graph.NodeID) {
	n := g.N()
	dist := slices.Grow(a.dist[:0], 2*n)[:2*n]
	queue := slices.Grow(a.queue[:0], 2*n)[:2*n]
	a.dist, a.queue = dist, queue[:0]
	for i := range dist {
		dist[i] = Infinite
	}
	a.rounds, a.ecc, a.bipartite = 0, 0, true
	if !g.HasNode(source) {
		return
	}
	csr := g.CSR()
	start := int32(source) << 1
	dist[start] = 0
	queue[0] = start
	tail, ecc := 1, int32(0)
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
				// First arrival at w: its BFS distance. BFS order makes
				// the last first arrival the eccentricity.
				ecc = next
			}
		}
	}
	a.queue = queue[:tail]
	a.rounds = int(dist[queue[tail-1]])
	a.ecc = int(ecc)
	a.bipartite = dist[start|1] == Infinite
}

// Dist returns the shortest parity-p walk length from the source to v, or
// Infinite.
func (a *Arena) Dist(v graph.NodeID, p Parity) int {
	return int(a.dist[int(v)<<1|int(p)])
}

// Rounds returns the exact round in which the flood from the source
// terminates: the maximum finite cover distance, or 0 when nothing is
// reachable (isolated source).
func (a *Arena) Rounds() int { return a.rounds }

// Eccentricity returns e(source): the greatest BFS distance from the
// source to a node of its component.
func (a *Arena) Eccentricity() int { return a.ecc }

// Bipartite reports whether the source's component is bipartite, i.e. no
// odd closed walk leaves the source (its odd parity is unreachable). Other
// components are not visited.
func (a *Arena) Bipartite() bool { return a.bipartite }

// Receipts returns the number of (node, round) receipts the flood makes:
// every reached cover state but the source's round-0 possession.
func (a *Arena) Receipts() int { return max(len(a.queue)-1, 0) }

// Receives reports whether node v receives M in the given round, i.e.
// whether round is v's cover distance of the round's parity.
func (a *Arena) Receives(v graph.NodeID, round int) bool {
	return round > 0 && int(a.dist[int(v)<<1|round&1]) == round
}

// ReceiptRounds returns the rounds in which node v receives M, in
// increasing order: the finite, non-zero cover distances. The source's
// round-0 "possession" is excluded (it is the paper's R_0, not a receipt).
func (a *Arena) ReceiptRounds(v graph.NodeID) []int {
	return receiptRounds(a.Dist(v, Even), a.Dist(v, Odd))
}

// receiptRounds orders a node's positive, finite parity distances.
func receiptRounds(even, odd int) []int {
	var out []int
	for _, d := range []int{even, odd} {
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
// run of the given rounds from a source of eccentricity ecc, and whether
// it certifies the run. On a bipartite component the window is exactly ecc
// (Lemma 2.1) and needs no D. Otherwise it is ecc..2D+1 (Theorem 3.3), and
// D is not computed: for any lb <= D, upper = 2*max(lb, ecc)+1 is at most
// 2D+1, so a run within upper is within 2D+1. A run past upper is neither
// certified nor refuted: Window then returns (0, false), and no upper end
// is reported.
func Window(rounds, ecc, lb int, bipartite bool) (upper int, certified bool) {
	if bipartite {
		return ecc, true
	}
	if upper = 2*max(lb, ecc) + 1; rounds > upper {
		return 0, false
	}
	return upper, true
}

// Cover materialises the bipartite double cover as a concrete graph:
// vertex (v, p) becomes node v + p*n. It is always bipartite; it is
// connected iff g is connected and non-bipartite (for bipartite g it splits
// into two copies of g).
func Cover(g *graph.Graph) *graph.Graph {
	n := g.N()
	b := graph.NewBuilder(2 * n).Name(fmt.Sprintf("doubleCover(%s)", g.Name()))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V+graph.NodeID(n))
		b.AddEdge(e.V, e.U+graph.NodeID(n))
	}
	return b.MustBuild()
}

// CoverNode maps a (node, parity) pair of g to its node ID in Cover(g).
func CoverNode(g *graph.Graph, v graph.NodeID, p Parity) graph.NodeID {
	return v + graph.NodeID(int(p)*g.N())
}

// Prediction is the complete forecast of a single-source amnesiac flood,
// derived from one parity BFS and no simulation.
type Prediction struct {
	Source graph.NodeID
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

// Predict forecasts the flood from source on g by applying the cover laws
// to one Arena run.
func Predict(g *graph.Graph, source graph.NodeID) Prediction {
	var a Arena
	a.Run(g, source)
	pred := Prediction{
		Source:   source,
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
// the nodes with both parities reachable at positive distance. For a
// connected bipartite graph this is empty; for a connected non-bipartite
// graph it is every node except possibly the source.
func (p Prediction) SecondReceivers() []graph.NodeID {
	var out []graph.NodeID
	for v, rounds := range p.Receipts {
		if len(rounds) == 2 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
