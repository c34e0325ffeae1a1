// Package model makes the execution model a registry-driven axis of the
// simulator, alongside protocol, engine, and graph.
//
// The paper's headline results are about *termination*: amnesiac flooding
// always terminates synchronously (Theorems 3.1/3.3), but an adversarial
// asynchronous scheduler (Section 4, Figure 5) or a changing edge set can
// keep the wave alive forever. This package gives those non-synchronous
// models the same shape the rest of the repository already has: adversaries
// (internal/async) and schedules (internal/dynamic) self-register under a
// canonical, round-trippable spec grammar mirroring internal/graph/gen,
//
//	sync
//	adversary:<family>[:key=value[,key=value]...]
//	schedule:<family>[:key=value[,key=value]...]
//
// (examples: "adversary:collision", "adversary:hold:node=3,extra=2",
// "schedule:blink:period=2,phase=1", "schedule:loss:p=0.05"), and two
// dedicated engines — AsyncEngine and DynamicEngine — run amnesiac flooding
// under them over the graph's CSR view with context cancellation,
// stop-capable engine.RoundObservers, and reused double-buffered in-flight
// arenas. The dynamic model is also the fault model: a Schedule decides the
// fate of each directed copy of M, so a lost message, random loss, and a
// crashed node are schedules, and DynamicEngine runs every fault. Messages
// are packed as edge-index+delay integers, never structs, so the per-round
// certificate path allocates nothing beyond amortised arena growth.
//
// # Non-termination certificates
//
// Amnesiac nodes carry no state, so the global configuration is fully
// described by the multiset of in-flight messages (asynchronous model: with
// their remaining delays; dynamic model: with the schedule phase). Under a
// deterministic stationary model a repeated configuration proves the
// execution is periodic and therefore never terminates. Both engines share
// one Detector keyed on hashed packed configurations with collision
// verification, replacing the two historical map[string]int implementations
// and their per-round string serialisation.
//
// The model engines execute amnesiac flooding only — the paper's Section 4
// model is defined for it, and the "respond to the complement of this
// round's senders" rule is built into the delivery loop. Every other
// protocol runs on the synchronous engines ("sync" model).
package model

import (
	"errors"
	"fmt"

	"amnesiacflood/internal/graph"
)

// ConfigView exposes the adversary-visible state when a batch is scheduled:
// the messages already in flight, with delays relative to the current round.
// Absolute round numbers are deliberately not exposed so that adversaries
// are stationary (round-invariant), which is what makes configuration-
// repeat certificates sound.
//
// InFlight is sorted by (remaining delay, sender, receiver); both slices
// alias engine-internal storage and must not be retained past the call.
type ConfigView struct {
	// InFlight lists messages already scheduled but not yet delivered;
	// Remaining[i] rounds remain before InFlight[i] is delivered (always
	// >= 1: this round's deliveries are in the batch, not the view).
	InFlight  []graph.Edge
	Remaining []int
}

// Adversary assigns delivery delays to outgoing message batches — the
// asynchronous scheduler of the paper's Section 4.
type Adversary interface {
	// Name identifies the adversary in reports.
	Name() string
	// Delays fills delays (len(delays) == len(batch), pre-zeroed by the
	// engine) with one extra delay >= 0 per message in batch. batch holds
	// the directed edges being sent this round, sorted by (From, To);
	// view is the rest of the configuration. Negative entries are clamped
	// to zero by the engine, so a buggy adversary cannot corrupt the run.
	Delays(batch []graph.Edge, view ConfigView, delays []int)
	// Deterministic reports whether Delays is a pure function of its
	// arguments. Only deterministic adversaries support configuration-
	// repeat certificates.
	Deterministic() bool
}

// ViewIgnorer is an optional Adversary extension declaring that Delays
// never reads its ConfigView argument. The async engine then skips
// building the per-round in-flight view (an O(in-flight) decode per
// round) entirely. Every adversary shipped in this repository ignores the
// view and implements this; adversaries that omit it, or return false,
// always receive a fully populated view.
type ViewIgnorer interface {
	IgnoresView() bool
}

// Schedule decides, per round, which copies of M survive — the
// dynamic-network model in which the edge set may change between rounds.
// Messages sent in round r cross only edges alive in round r; a message
// whose edge is down is lost. Faults are schedules too: a lost copy is a
// directed edge that is down for one round, and a crashed node is one whose
// every edge is down.
type Schedule interface {
	// Name identifies the schedule in reports.
	Name() string
	// Alive reports whether the copy of M that e.U sends to e.V is
	// delivered in the given round. The engine passes the directed copy,
	// not a normalised edge: a schedule of undirected links compares
	// e.Normalize() itself, while a loss or crash schedule may treat the
	// two directions of one link differently.
	Alive(round int, e graph.Edge) bool
	// Period returns p > 0 when Alive depends on the round only through
	// round mod p (a static schedule has period 1). It returns 0 when the
	// schedule is aperiodic; certificates are then disabled.
	Period() int
}

// Settler is an optional Schedule extension for schedules with a transient:
// SettledAfter returns the last round with transient behaviour, after which
// the declared Period actually holds. The engines start recording
// configurations only once the transient has passed, so pre-transient
// configurations can never alias post-transient ones.
type Settler interface {
	SettledAfter() int
}

// Validator is an optional Adversary or Schedule extension for models that
// name nodes or edges of the graph they run on (a crashed node, a slow
// sender, an outage's link). Validate reports a name the graph lacks, with
// CheckNode's or CheckEdge's typed errors; Model.Validate calls it before
// the model runs, so a typo in a fault spec fails instead of running the
// fault-free control.
type Validator interface {
	Validate(g *graph.Graph) error
}

// ErrNotAnEdge is returned when a model names two nodes of the graph that
// are not joined by an edge.
var ErrNotAnEdge = errors.New("node pair is not an edge of the graph")

// CheckNode returns an error wrapping graph.ErrNodeOutOfRange unless v is a
// node of g.
func CheckNode(g *graph.Graph, v graph.NodeID) error {
	if !g.HasNode(v) {
		return fmt.Errorf("node %d with n=%d: %w", v, g.N(), graph.ErrNodeOutOfRange)
	}
	return nil
}

// CheckEdge returns CheckNode's error for an endpoint outside g, and an
// error wrapping ErrNotAnEdge when both endpoints are nodes but e is not
// an edge of g.
func CheckEdge(g *graph.Graph, e graph.Edge) error {
	if err := CheckNode(g, e.U); err != nil {
		return err
	}
	if err := CheckNode(g, e.V); err != nil {
		return err
	}
	if !g.HasEdge(e.U, e.V) {
		return fmt.Errorf("pair %s: %w", e, ErrNotAnEdge)
	}
	return nil
}

// settledAfter returns the round after which a schedule's declared period
// actually holds (0 for always-periodic schedules).
func settledAfter(sched Schedule) int {
	if s, ok := sched.(Settler); ok {
		return s.SettledAfter()
	}
	return 0
}

// DefaultMaxRounds bounds model-engine runs when Options.MaxRounds is 0.
// Unlike the synchronous engines, asynchronous and dynamic amnesiac
// flooding can legitimately run forever, so this is a working bound, not a
// correctness bound: hitting it yields Outcome == engine.OutcomeRoundLimit
// with a nil error, never engine.ErrMaxRounds.
const DefaultMaxRounds = 1 << 16
