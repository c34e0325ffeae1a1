package analysis

import (
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Coverage is the per-node receive bookkeeping the paper's lemmas quantify
// over: receive counts (a round counts once however many neighbours
// delivered copies), first/last receive rounds, and the derived covered /
// max-receives verdicts. In the synchronous model a node receives M in at
// most two rounds, one per parity of the double cover, so first and last
// are its complete record of the round-sets R_i the theory checks read. All
// buffers are sized once and reused across runs.
type Coverage struct {
	origins       []graph.NodeID
	isOrigin      []bool
	receiveCounts []int
	firstReceive  []int
	lastReceive   []int
	receipts      int
}

var (
	_ Analyzer                = (*Coverage)(nil)
	_ engine.FrontierObserver = (*Coverage)(nil)
)

func init() {
	Families.Register("coverage", Family{
		Doc:     "per-node receive counts, first/last receive rounds, coverage, and max receives",
		Metrics: []string{"covered", "uncovered", "maxReceives", "receipts"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			n := ctx.Graph.N()
			return &Coverage{
				isOrigin:      make([]bool, n),
				receiveCounts: make([]int, n),
				firstReceive:  make([]int, n),
				lastReceive:   make([]int, n),
			}, nil
		},
	})
}

// Family implements Analyzer.
func (c *Coverage) Family() string { return "coverage" }

// Start implements Analyzer, resetting the reusable buffers.
func (c *Coverage) Start(origins []graph.NodeID) error {
	for _, o := range c.origins {
		c.isOrigin[o] = false
	}
	c.origins = append(c.origins[:0], origins...)
	slices.Sort(c.origins)
	c.origins = slices.Compact(c.origins)
	for _, o := range c.origins {
		c.isOrigin[o] = true
	}
	clear(c.receiveCounts)
	clear(c.firstReceive)
	clear(c.lastReceive)
	c.receipts = 0
	return nil
}

// ObserveRound implements engine.RoundObserver.
func (c *Coverage) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return c.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver: coverage needs only each
// round's receivers.
func (c *Coverage) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver. It never requests a
// stop: coverage is a whole-run property.
func (c *Coverage) ObserveFrontier(f engine.Frontier) (bool, error) {
	for v := range f.Receivers {
		// A node receiving from several neighbours in one round counts the
		// round once, exactly like RoundRecord.Receivers.
		if c.lastReceive[v] == f.Round {
			continue
		}
		c.receiveCounts[v]++
		if c.firstReceive[v] == 0 {
			c.firstReceive[v] = f.Round
		}
		c.lastReceive[v] = f.Round
		c.receipts++
	}
	return false, nil
}

// Finish implements Analyzer.
func (c *Coverage) Finish(res engine.Result) (Metrics, error) {
	uncovered := c.Uncovered()
	return Metrics{
		"covered":     boolMetric(uncovered == 0),
		"uncovered":   float64(uncovered),
		"maxReceives": float64(c.MaxReceives()),
		"receipts":    float64(c.receipts),
	}, nil
}

// Uncovered returns how many nodes other than the origins never received
// M: 0 exactly when the run covered the graph.
func (c *Coverage) Uncovered() int {
	uncovered := 0
	for v, n := range c.receiveCounts {
		if n == 0 && !c.isOrigin[v] {
			uncovered++
		}
	}
	return uncovered
}

// MaxReceives returns the largest number of distinct rounds any one node
// received M in: at most 1 on a connected bipartite graph from one source
// (Lemma 2.1), at most 2 in general.
func (c *Coverage) MaxReceives() int {
	most := 0
	for _, n := range c.receiveCounts {
		most = max(most, n)
	}
	return most
}

// Origins returns the run's sorted, deduplicated origin set.
func (c *Coverage) Origins() []graph.NodeID { return c.origins }

// ReceiveCounts returns the per-node count of distinct rounds each node
// received M in. The slice is the analyzer's reusable buffer: valid until
// the next Start, not to be mutated.
func (c *Coverage) ReceiveCounts() []int { return c.receiveCounts }

// FirstReceive returns the per-node first receive round (0 = never); same
// buffer-reuse contract as ReceiveCounts.
func (c *Coverage) FirstReceive() []int { return c.firstReceive }

// LastReceive returns the per-node last receive round (0 = never); same
// buffer-reuse contract as ReceiveCounts.
func (c *Coverage) LastReceive() []int { return c.lastReceive }
