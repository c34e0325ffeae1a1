// Package dynamic defines the edge schedules of the dynamic-network
// amnesiac flooding model: the edge set of a base graph may change between
// rounds, and messages sent onto dead edges are lost. The paper's open
// questions ask how the process behaves beyond static synchronous graphs;
// these schedules give the question an executable form, complementing the
// asynchronous adversaries of internal/async.
//
// Faults are schedules too. A schedule sees each copy of M directed (see
// model.Schedule), so a lost message is an edge that is down for one copy
// in one round, and a crashed node is one whose every edge is down: Loss
// (schedule:loss) drops copies at random, Crash (schedule:crash) takes
// nodes down for good, and OutageOnce (schedule:outage) is the minimal
// fault, one link down for one round.
//
// The schedules implement model.Schedule and self-register in the
// model-spec registry from this package's init, so importing the package is
// all it takes to make them addressable as execution-model specs
// ("schedule:static", "schedule:blink:period=2,phase=1",
// "schedule:loss:p=0.05", ...) through sim.WithModel, scenario matrices,
// and the CLIs. The model itself — delivery, loss accounting,
// (phase, configuration) certificates — is executed by model.Engine, which
// asks a schedule whether each copy due arrives (its delivery-time fate
// hook, beside the adversaries' send-time one); this package holds only
// the liveness policies.
//
// Findings (experiments E12, E14, E15): a static schedule reproduces the
// synchronous engine exactly; a single edge outage in the right round is a
// lost message and can leave a wavefront circulating forever; periodically
// blinking edges can sustain the flood on graphs where every static
// subgraph would terminate; sustained random loss keeps dense cyclic
// graphs alive while only pruning trees; crashes only absorb messages.
package dynamic

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// Static keeps every edge alive forever: the model engine must match the
// synchronous engines exactly under it (verified by fuzz tests).
type Static struct{}

var _ model.Schedule = Static{}

// Name implements model.Schedule.
func (Static) Name() string { return "static" }

// Alive implements model.Schedule.
func (Static) Alive(int, graph.Edge) bool { return true }

// Period implements model.Schedule: static behaviour has period 1.
func (Static) Period() int { return 1 }

// OutageOnce takes one edge down for exactly one round — the minimal
// dynamic fault, equivalent to losing the messages crossing that edge in
// that round.
type OutageOnce struct {
	Round int
	Edge  graph.Edge
}

var _ model.Schedule = OutageOnce{}
var _ model.Settler = OutageOnce{}
var _ model.Validator = OutageOnce{}

// Name implements model.Schedule.
func (o OutageOnce) Name() string {
	return fmt.Sprintf("outage(r%d,%s)", o.Round, o.Edge.Normalize())
}

// Alive implements model.Schedule: the link is down in both directions.
func (o OutageOnce) Alive(round int, e graph.Edge) bool {
	return !(round == o.Round && e.Normalize() == o.Edge.Normalize())
}

// Period implements model.Schedule: after the outage round the schedule is
// static (period 1). SettledAfter tells the engine to start recording
// configurations only once the transient has passed, so pre-outage
// configurations can never alias post-outage ones.
func (o OutageOnce) Period() int { return 1 }

// SettledAfter implements model.Settler: the outage round is the last
// transient round.
func (o OutageOnce) SettledAfter() int { return o.Round }

// Validate implements model.Validator: the link must be an edge of g.
func (o OutageOnce) Validate(g *graph.Graph) error { return model.CheckEdge(g, o.Edge) }

// Blinking keeps one edge alive only every k-th round (round % K == Phase),
// all other edges always alive. With K = 2 this models a link that flaps at
// half the round rate.
type Blinking struct {
	Edge  graph.Edge
	K     int
	Phase int
}

var _ model.Schedule = Blinking{}
var _ model.Validator = Blinking{}

// Name implements model.Schedule.
func (b Blinking) Name() string {
	return fmt.Sprintf("blinking(%s,k=%d)", b.Edge.Normalize(), b.K)
}

// Alive implements model.Schedule: the link blinks in both directions.
func (b Blinking) Alive(round int, e graph.Edge) bool {
	if e.Normalize() != b.Edge.Normalize() {
		return true
	}
	return round%b.K == b.Phase%b.K
}

// Period implements model.Schedule.
func (b Blinking) Period() int { return b.K }

// Validate implements model.Validator: the link must be an edge of g.
func (b Blinking) Validate(g *graph.Graph) error { return model.CheckEdge(g, b.Edge) }

// Alternating splits the edge set in two halves that are alive in
// alternating rounds: even rounds use edges with U+V even, odd rounds the
// rest. An aggressive periodic churn keeping only half the graph up at any
// time.
type Alternating struct{}

var _ model.Schedule = Alternating{}

// Name implements model.Schedule.
func (Alternating) Name() string { return "alternating-halves" }

// Alive implements model.Schedule. U+V is symmetric, so both directions of
// a link share its liveness.
func (Alternating) Alive(round int, e graph.Edge) bool {
	return (int(e.U+e.V)+round)%2 == 0
}

// Period implements model.Schedule.
func (Alternating) Period() int { return 2 }

// Loss drops each copy of M independently with probability P, decided by a
// hash of (Seed, round, from, to): reproducible and independent of
// evaluation order, but round-dependent, so the schedule is aperiodic and
// its runs end in termination or the round limit, never a certificate.
type Loss struct {
	P    float64
	Seed int64
}

var _ model.Schedule = Loss{}

// Name implements model.Schedule.
func (l Loss) Name() string { return fmt.Sprintf("loss(p=%g)", l.P) }

// Alive implements model.Schedule: the copy e.U -> e.V survives unless its
// draw falls below P.
func (l Loss) Alive(round int, e graph.Edge) bool {
	return lossDraw(l.Seed, round, e.U, e.V) >= l.P
}

// Period implements model.Schedule: loss is aperiodic.
func (Loss) Period() int { return 0 }

// lossDraw is a deterministic uniform value in [0,1): FNV-1a over the
// little-endian 8-byte words seed, round, from, to, top 53 bits.
func lossDraw(seed int64, round int, from, to graph.NodeID) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range [4]int64{seed, int64(round), int64(from), int64(to)} {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(w>>(8*i)))) * prime64
		}
	}
	return float64(h>>11) / float64(1<<53)
}

// Crash takes a set of nodes down for good from round Round on: a crashed
// node neither receives nor sends, so every copy into or out of it is
// lost. The schedule is static before Round and static again after it.
type Crash struct {
	Nodes []graph.NodeID
	Round int
}

var _ model.Schedule = Crash{}
var _ model.Settler = Crash{}
var _ model.Validator = Crash{}

// Name implements model.Schedule.
func (c Crash) Name() string {
	nodes := make([]string, len(c.Nodes))
	for i, v := range c.Nodes {
		nodes[i] = strconv.Itoa(int(v))
	}
	return fmt.Sprintf("crash(%s@r%d)", strings.Join(nodes, "+"), c.Round)
}

// Alive implements model.Schedule.
func (c Crash) Alive(round int, e graph.Edge) bool {
	return round < c.Round || !(slices.Contains(c.Nodes, e.U) || slices.Contains(c.Nodes, e.V))
}

// Period implements model.Schedule: static once the crash round has
// passed, like OutageOnce.
func (Crash) Period() int { return 1 }

// SettledAfter implements model.Settler: configurations are recorded only
// after the crash round.
func (c Crash) SettledAfter() int { return c.Round }

// Validate implements model.Validator: every crashed node must be a node
// of g.
func (c Crash) Validate(g *graph.Graph) error {
	for _, v := range c.Nodes {
		if err := model.CheckNode(g, v); err != nil {
			return err
		}
	}
	return nil
}
