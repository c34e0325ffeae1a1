package analysis

import (
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// SpanTree extracts the rooted BFS spanning tree from a single-source
// flood, streaming: node v is adopted on its first receipt round by the
// smallest-ID sender of that round (sends arrive sorted by (From, To), so
// the first sender seen is the smallest), with parent/depth buffers reused
// across runs. The analyzer signals readiness
// once every node is adopted, which on non-bipartite graphs is strictly
// before the flood dies.
type SpanTree struct {
	g         *graph.Graph
	root      graph.NodeID
	parent    []graph.NodeID
	depth     []int
	remaining int
	maxDepth  int
}

var _ Analyzer = (*SpanTree)(nil)

func init() {
	Register("spantree", Family{
		Doc:     "streaming BFS spanning tree of a single-source flood (early-stops once the tree spans)",
		Metrics: []string{"depth", "reached", "treeEdges", "complete"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			n := ctx.Graph.N()
			return &SpanTree{
				g:      ctx.Graph,
				parent: make([]graph.NodeID, n),
				depth:  make([]int, n),
			}, nil
		},
	})
}

// Family implements Analyzer.
func (t *SpanTree) Family() string { return "spantree" }

// Start implements Analyzer.
func (t *SpanTree) Start(origins []graph.NodeID) error {
	root, err := singleOrigin("spantree", origins)
	if err != nil {
		return err
	}
	t.root = root
	for v := range t.parent {
		t.parent[v] = graph.NodeID(v)
		t.depth[v] = -1
	}
	t.depth[root] = 0
	t.remaining = t.g.N() - 1
	t.maxDepth = 0
	return nil
}

// ObserveRound implements engine.RoundObserver, adopting first-time
// receivers and signalling readiness once the tree spans the graph. Depth
// is the parent's depth plus one — well-defined in delivery order, since a
// sender was itself delivered to (or is the root) before it sends. Under
// the sync model that equals the delivery round (the BFS distance); under
// delay adversaries and schedules the rounds stretch but the tree stays a
// consistent first-delivery tree.
func (t *SpanTree) ObserveRound(rec engine.RoundRecord) (bool, error) {
	for _, s := range rec.Sends {
		v := s.To
		if t.depth[v] != -1 {
			continue // already adopted; same-round later senders are larger
		}
		t.parent[v] = s.From
		d := t.depth[s.From] + 1
		t.depth[v] = d
		if d > t.maxDepth {
			t.maxDepth = d
		}
		t.remaining--
	}
	return t.remaining == 0, nil
}

// Finish implements Analyzer.
func (t *SpanTree) Finish(res engine.Result) (Metrics, error) {
	reached := t.g.N() - t.remaining
	return Metrics{
		"depth":     float64(t.maxDepth),
		"reached":   float64(reached),
		"treeEdges": float64(reached - 1),
		"complete":  boolMetric(t.remaining == 0),
	}, nil
}

// Tree returns a copy of the tree built so far (complete once the observed
// flood reached every node), safe to retain across further runs.
func (t *SpanTree) Tree() *Tree {
	return &Tree{
		Root:   t.root,
		Parent: append([]graph.NodeID(nil), t.parent...),
		Depth:  append([]int(nil), t.depth...),
	}
}
