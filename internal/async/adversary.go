// Package async defines the delay adversaries of the asynchronous amnesiac
// flooding model from Section 4 of the paper, in which a scheduling
// adversary adaptively chooses the delay of every message.
//
// The adversaries implement model.Adversary and self-register in the
// model-spec registry from this package's init, so importing the package is
// all it takes to make them addressable as execution-model specs
// ("adversary:collision", "adversary:hold:node=3,extra=2", ...) through
// sim.WithModel, scenario matrices, and the CLIs. The model itself — in-
// flight arenas, delivery semantics, configuration-repeat certificates — is
// executed by model.Engine, which calls an adversary once per round to
// delay the copies sent (its send-time fate hook, beside the schedules'
// delivery-time one); this package holds only the scheduling policies.
// The deterministic ones are pure functions of the batch, which keeps
// certificates sound.
package async

import (
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// SyncAdversary delivers every message with zero extra delay, making the
// asynchronous model coincide with the synchronous one. It is the control
// adversary: runs under it must terminate exactly like the synchronous
// engines (verified by fuzz tests against byte-identical traces).
type SyncAdversary struct{}

var _ model.Adversary = SyncAdversary{}

// Name implements model.Adversary.
func (SyncAdversary) Name() string { return "sync" }

// Delays implements model.Adversary with all-zero delays.
func (SyncAdversary) Delays([]graph.Edge, []int) {}

// Deterministic implements model.Adversary.
func (SyncAdversary) Deterministic() bool { return true }

// CollisionDelayer is the paper's Figure 5 adversary, generalised: whenever
// two or more messages sent in the same round target the same node, the one
// from the lowest-identifier sender is delivered on time and every other is
// held back one extra round. On the triangle this reproduces the schedule
// of Figure 5 round for round and yields a configuration cycle, i.e. a
// certificate of non-termination; experiments show the same on longer odd
// cycles.
type CollisionDelayer struct{}

var _ model.Adversary = CollisionDelayer{}

// Name implements model.Adversary.
func (CollisionDelayer) Name() string { return "collision-delayer" }

// Delays implements model.Adversary. batch is sorted by (From, To), so
// within a target the lowest-ID sender appears first.
func (CollisionDelayer) Delays(batch []graph.Edge, delays []int) {
	firstTo := map[graph.NodeID]graph.NodeID{} // target -> lowest sender
	for _, e := range batch {
		if cur, ok := firstTo[e.V]; !ok || e.U < cur {
			firstTo[e.V] = e.U
		}
	}
	for i, e := range batch {
		if firstTo[e.V] != e.U {
			delays[i] = 1
		}
	}
}

// Deterministic implements model.Adversary.
func (CollisionDelayer) Deterministic() bool { return true }

// HoldNode delays every message sent *by* one fixed node by a constant
// amount, modelling a single slow link/node; all other messages are
// synchronous. Deterministic, so certificates apply.
type HoldNode struct {
	// Node is the slow sender.
	Node graph.NodeID
	// Extra is the extra delay applied to its messages (>= 0).
	Extra int
}

var _ model.Adversary = HoldNode{}
var _ model.Validator = HoldNode{}

// Name implements model.Adversary.
func (a HoldNode) Name() string { return "hold-node" }

// Delays implements model.Adversary.
func (a HoldNode) Delays(batch []graph.Edge, delays []int) {
	for i, e := range batch {
		if e.U == a.Node {
			delays[i] = a.Extra
		}
	}
}

// Deterministic implements model.Adversary.
func (a HoldNode) Deterministic() bool { return true }

// Validate implements model.Validator: the slow sender must be a node of g.
func (a HoldNode) Validate(g *graph.Graph) error { return model.CheckNode(g, a.Node) }

// UniformDelayer delays every message by the same constant k. The
// execution is the synchronous one stretched in time (message lifetimes
// never overlap differently), so termination is preserved — a useful
// control showing that delay per se is harmless; only *asymmetric* delay
// breaks termination.
type UniformDelayer struct {
	// Extra is the constant extra delay (>= 0).
	Extra int
}

var _ model.Adversary = UniformDelayer{}

// Name implements model.Adversary.
func (a UniformDelayer) Name() string { return "uniform-delayer" }

// Delays implements model.Adversary.
func (a UniformDelayer) Delays(batch []graph.Edge, delays []int) {
	for i := range delays {
		delays[i] = a.Extra
	}
}

// Deterministic implements model.Adversary.
func (a UniformDelayer) Deterministic() bool { return true }

// EdgeDelayer adds a fixed extra delay to every message crossing one
// specific undirected edge (in either direction), modelling a single slow
// link. Deterministic and stationary, so certificates apply.
type EdgeDelayer struct {
	// Edge is the slow link.
	Edge graph.Edge
	// Extra is its extra delay (>= 0).
	Extra int
}

var _ model.Adversary = EdgeDelayer{}
var _ model.Validator = EdgeDelayer{}

// Name implements model.Adversary.
func (a EdgeDelayer) Name() string { return "edge-delayer" }

// Delays implements model.Adversary.
func (a EdgeDelayer) Delays(batch []graph.Edge, delays []int) {
	slow := a.Edge.Normalize()
	for i, e := range batch {
		if e.Normalize() == slow {
			delays[i] = a.Extra
		}
	}
}

// Deterministic implements model.Adversary.
func (a EdgeDelayer) Deterministic() bool { return true }

// Validate implements model.Validator: the slow link must be an edge of g.
func (a EdgeDelayer) Validate(g *graph.Graph) error { return model.CheckEdge(g, a.Edge) }

// RandomAdversary delays each message independently and uniformly in
// {0..MaxExtra}, seeded for reproducibility. It is not deterministic in the
// certificate sense, so runs under it can only end in termination or the
// round limit. Its stream restarts from the seed at the start of every
// model-engine run, so every run draws the delays of a fresh adversary's
// first run.
type RandomAdversary struct {
	rng      *rand.Rand
	seed     int64
	maxExtra int
}

var (
	_ model.Adversary = (*RandomAdversary)(nil)
	_ model.Restarter = (*RandomAdversary)(nil)
)

// NewRandomAdversary returns a seeded random adversary with delays in
// {0..maxExtra}.
func NewRandomAdversary(seed int64, maxExtra int) *RandomAdversary {
	if maxExtra < 0 {
		maxExtra = 0
	}
	return &RandomAdversary{rng: rand.New(rand.NewSource(seed)), seed: seed, maxExtra: maxExtra}
}

// Restart implements model.Restarter: it rewinds the delay stream to the
// seed.
func (a *RandomAdversary) Restart() { a.rng.Seed(a.seed) }

// Name implements model.Adversary.
func (a *RandomAdversary) Name() string { return "random" }

// Delays implements model.Adversary.
func (a *RandomAdversary) Delays(batch []graph.Edge, delays []int) {
	for i := range delays {
		delays[i] = a.rng.Intn(a.maxExtra + 1)
	}
}

// Deterministic implements model.Adversary.
func (a *RandomAdversary) Deterministic() bool { return false }
