// Package engine implements the synchronous message-passing substrate of the
// paper's model: computation proceeds in rounds, each round every node
// receives the messages addressed to it, performs local computation, and
// emits messages that are delivered in the next round. No messages are lost.
//
// The package defines a Protocol abstraction shared by the deterministic
// sequential engine implemented here and the goroutine/channel engine in the
// chanengine subpackage; both must produce identical traces (experiment E10).
//
// Round numbering follows the paper: the origin's spontaneous sends happen
// in round 1 and are received in round 1; the messages a node emits in
// response are received in round 2; and so on. A run terminates at the end
// of the first round in which no edge carries a message.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"slices"
	"time"

	"amnesiacflood/internal/graph"
)

// Send is a message crossing the directed edge From -> To during one round.
// The flooding protocols studied here carry a single, constant payload M, so
// the (From, To) pair fully identifies a message within a round.
type Send struct {
	From, To graph.NodeID
}

// String renders the send as "from->to".
func (s Send) String() string {
	return fmt.Sprintf("%d->%d", s.From, s.To)
}

// NodeAutomaton is the per-node behaviour of a protocol. In every round in
// which node v receives at least one copy of the message, the engine calls
// its automaton with the round number and the sorted list of distinct
// senders; the automaton returns the neighbours v sends to in the next
// round. The senders slice aliases engine-internal storage that is reused
// for the next receiver — automata must not retain it past the call.
//
// Implementations may keep internal state across calls (classic flooding
// keeps a "seen" flag). Amnesiac flooding must not: its automaton is a pure
// function of the current round's senders, which is exactly the paper's
// memorylessness requirement.
type NodeAutomaton func(round int, senders []graph.NodeID) []graph.NodeID

// Protocol is a synchronous message-driven algorithm, instantiated for a
// specific graph and origin set.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Bootstrap returns the spontaneous sends of round 1. The protocol
	// retains ownership of the returned slice: engines copy it before
	// normalising, so implementations may return an internal slice and
	// call sites may rely on it staying untouched across runs.
	Bootstrap() []Send
	// NewNode returns a fresh automaton for node v. The engine calls it
	// once per node per run, so per-run node state lives in the returned
	// closure.
	NewNode(v graph.NodeID) NodeAutomaton
}

// BitsetRule identifies the per-round forwarding rule of a protocol whose
// whole round is a set operation over received-from directions, which is
// what lets the bitengine subpackage run it as a word-parallel bitset sweep
// instead of materialising per-message Send records, and the fastengine
// subpackage run it as one allocation-free merge per receiver.
type BitsetRule int

// The forwarding rules the bitset and fast engines can execute.
const (
	// RuleComplement: every receiver forwards to the complement of its
	// sender set, every round — amnesiac flooding.
	RuleComplement BitsetRule = iota + 1
	// RuleComplementOnce: a receiver forwards the complement of its sender
	// set on its *first* receipt and stays silent afterwards — classic
	// flooding with a per-node seen bit (origins count as already seen).
	RuleComplementOnce
)

// BitsetProtocol is an optional extension of Protocol for protocols whose
// dynamics are fully captured by a BitsetRule. Engines that recognise it
// execute the declared rule instead of calling NewNode: the bitset engine
// as word-parallel sweeps, the fast engine as a per-receiver merge over CSR
// rows. NewNode must still agree with the rule, since the sequential and
// channel engines call it. The bitset engine refuses protocols without a
// rule (see bitengine.ErrUnsupportedProtocol), so a protocol with bespoke
// per-node behaviour (faulty nodes, multi-message payloads) cannot be
// expressed there; the fast engine falls back to NewNode for them.
type BitsetProtocol interface {
	Protocol
	// BitsetRule declares the forwarding rule the engine should execute.
	BitsetRule() BitsetRule
}

// Outcome classifies how a run ended across every execution model. The
// synchronous engines prove termination by reaching an empty round; the
// asynchronous and dynamic model engines (internal/model) can additionally
// certify *non*-termination by configuration repetition, or give up at a
// round limit without a verdict (randomised adversaries, aperiodic
// schedules). The zero value means "no verdict" — the run was stopped or
// cancelled before one was reached.
type Outcome int

// Possible outcomes.
const (
	// OutcomeNone: no verdict (stopped by an observer or cancelled).
	OutcomeNone Outcome = iota
	// OutcomeTerminated: a round with no message in flight arrived.
	OutcomeTerminated
	// OutcomeCycle: the global configuration repeated under a
	// deterministic model — a finite certificate of an infinite execution.
	OutcomeCycle
	// OutcomeRoundLimit: the round limit was reached without termination
	// or a certificate.
	OutcomeRoundLimit
)

// String implements fmt.Stringer, matching the historical report spellings.
func (o Outcome) String() string {
	switch o {
	case OutcomeNone:
		return ""
	case OutcomeTerminated:
		return "terminated"
	case OutcomeCycle:
		return "non-termination-certified"
	case OutcomeRoundLimit:
		return "round-limit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// MarshalJSON renders the outcome as its string spelling.
func (o Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// UnmarshalJSON parses the string spelling emitted by MarshalJSON.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "":
		*o = OutcomeNone
	case "terminated":
		*o = OutcomeTerminated
	case "non-termination-certified":
		*o = OutcomeCycle
	case "round-limit":
		*o = OutcomeRoundLimit
	default:
		return fmt.Errorf("engine: unknown outcome %q", s)
	}
	return nil
}

// Certificate is a non-termination certificate: the global configuration at
// the start of round Start reoccurred at Start+Length, so the execution is
// periodic from Start on and never terminates.
type Certificate struct {
	Start  int `json:"start"`
	Length int `json:"length"`
}

// RoundRecord is the trace of a single round: the messages crossing edges
// during that round, sorted by (From, To).
type RoundRecord struct {
	Round int    `json:"round"`
	Sends []Send `json:"sends"`
}

// Senders returns the sorted set of distinct nodes sending in this round
// (the "circled nodes" of the paper's figures).
func (r RoundRecord) Senders() []graph.NodeID {
	out := make([]graph.NodeID, len(r.Sends))
	for i, s := range r.Sends {
		out[i] = s.From
	}
	return sortedDistinct(out)
}

// Receivers returns the sorted set of distinct nodes receiving in this round
// (the round-set R_i of the paper's Theorem 3.1 proof).
func (r RoundRecord) Receivers() []graph.NodeID {
	out := make([]graph.NodeID, len(r.Sends))
	for i, s := range r.Sends {
		out[i] = s.To
	}
	return sortedDistinct(out)
}

// sortedDistinct sorts ids in place and drops duplicates. Normalised records
// deliver the ids nearly (Receivers) or fully (Senders) sorted, so the sort
// is cheap and the whole helper costs one allocation.
func sortedDistinct(ids []graph.NodeID) []graph.NodeID {
	if len(ids) == 0 {
		return ids
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Result is the outcome of a synchronous run.
type Result struct {
	// Protocol is the protocol name, for reports.
	Protocol string `json:"protocol"`
	// Engine names the substrate that executed the run. The engines leave
	// it empty; the sim façade fills it in so benchmark JSON and
	// experiment tables can attribute numbers to a substrate.
	Engine string `json:"engine,omitempty"`
	// Model is the canonical execution-model spec (internal/model grammar)
	// the run executed under. The engines leave it empty; the sim façade
	// stamps it ("sync", "adversary:collision", ...).
	Model string `json:"model,omitempty"`
	// Outcome classifies how the run ended. The synchronous engines leave
	// it unset (the façade derives OutcomeTerminated from Terminated); the
	// model engines report their verdict directly, including certified
	// non-termination, which Terminated alone cannot express.
	Outcome Outcome `json:"outcome,omitempty"`
	// Certificate describes the certified non-termination loop when
	// Outcome == OutcomeCycle, nil otherwise.
	Certificate *Certificate `json:"certificate,omitempty"`
	// Terminated is true when the run reached a round with no messages
	// within the round limit; false means the limit was hit first or an
	// observer stopped the run.
	Terminated bool `json:"terminated"`
	// Stopped is true when a RoundObserver ended the run early by
	// returning stop. Rounds, TotalMessages, and Trace then cover exactly
	// the rounds up to and including the stopping round.
	Stopped bool `json:"stopped,omitempty"`
	// Rounds is the number of rounds in which at least one message was in
	// flight. For a terminated run, no message exists in round Rounds+1.
	Rounds int `json:"rounds"`
	// TotalMessages counts every (sender, receiver) message delivery over
	// the whole run.
	TotalMessages int `json:"totalMessages"`
	// Lost counts messages dropped in transit. Only the dynamic model
	// engine produces losses (sends onto dead edges); it is zero
	// everywhere else.
	Lost int `json:"lost,omitempty"`
	// WallTime is the wall-clock duration of the run. The engines leave
	// it zero; the sim façade populates it.
	WallTime time.Duration `json:"wallTimeNs,omitempty"`
	// Phases splits WallTime into per-phase durations. The engines leave
	// it zero; the sim façade populates it. Like WallTime it is
	// nondeterministic and excluded from every equality contract.
	Phases PhaseTimings `json:"phases,omitzero"`
	// Metrics holds the merged streaming-analysis metrics of the run,
	// keyed "<family>.<metric>" (see internal/analysis). The engines leave
	// it nil; the sim façade populates it when analyses are attached with
	// sim.WithAnalysis.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trace holds one record per round when tracing is enabled, nil
	// otherwise.
	Trace []RoundRecord `json:"trace,omitempty"`
}

// PhaseTimings splits one run's wall clock into its phases, as measured by
// the sim façade: Build is the per-run protocol construction (zero for a
// Session.Run over a protocol built at New time), Run is the engine's
// round loop including analysis observation, Analyze is the
// analysis.Set.Finish metric merge. Scenario sinks time their writes
// separately (the sink phase lives in scenario.Telemetry, not here — a
// sink write is per row, not per engine run).
type PhaseTimings struct {
	Build   time.Duration `json:"buildNs,omitempty"`
	Run     time.Duration `json:"runNs,omitempty"`
	Analyze time.Duration `json:"analyzeNs,omitempty"`
}

// ErrMaxRounds is wrapped into the error returned by Run when the round
// limit is exceeded, which for the protocols in this repository indicates
// either a deliberately non-terminating configuration or a bug.
var ErrMaxRounds = errors.New("round limit exceeded")

// RoundObserver streams a run round by round. ObserveRound is invoked after
// every round with the round's record, regardless of Options.Trace; the
// record's Sends slice aliases engine-internal storage and must not be
// retained past the call.
//
// Returning stop = true ends the run cleanly after the observed round:
// the engine sets Result.Stopped, leaves Terminated false, and returns a nil
// error, with Rounds/TotalMessages/Trace covering exactly the observed
// prefix. Returning a non-nil error aborts the run and the engine returns
// the error wrapped. Every engine honours stop and err identically, so
// early-stopped traces are byte-identical prefixes of full traces.
type RoundObserver interface {
	ObserveRound(rec RoundRecord) (stop bool, err error)
}

// ObserverFunc adapts a plain function to the RoundObserver interface.
type ObserverFunc func(rec RoundRecord) (stop bool, err error)

// ObserveRound implements RoundObserver.
func (f ObserverFunc) ObserveRound(rec RoundRecord) (bool, error) { return f(rec) }

// Frontier is the set-level view of one round: how many messages are in
// flight and which nodes receive them, without the per-message Send
// records. In amnesiac flooding a round is fully described by the directed
// edges carrying M, so engines that keep that set natively (bitengine) can
// report it without materialising and sorting one Send per message.
type Frontier struct {
	// Round is the round number, as in RoundRecord.
	Round int
	// Messages counts the messages in flight this round (len(Sends)).
	Messages int
	// Receivers yields every node receiving at least one message this
	// round, in no particular order. A frontier
	// derived from Sends (RoundRecord.Frontier) yields a node once per
	// message it receives; consumers needing distinct receivers dedup. Like
	// RoundRecord.Sends, it reads engine-internal state and must not be
	// called after ObserveFrontier returns.
	Receivers iter.Seq[graph.NodeID]
}

// Frontier returns the set-level view of the record. Its Receivers yields
// the To of every send, so a node receiving several copies repeats.
func (r RoundRecord) Frontier() Frontier {
	return Frontier{Round: r.Round, Messages: len(r.Sends), Receivers: func(yield func(graph.NodeID) bool) {
		for _, s := range r.Sends {
			if !yield(s.To) {
				return
			}
		}
	}}
}

// FrontierObserver is an optional extension of RoundObserver for observers
// that need only each round's Frontier. When FrontierOnly reports true at the
// start of a run, an engine that keeps the frontier natively may call
// ObserveFrontier instead of ObserveRound for every round of that run (unless
// Options.Trace makes it materialise Sends anyway), with the same stop/err
// contract. Engines that materialise Sends regardless keep calling
// ObserveRound, so ObserveRound must compute the same thing — typically by
// delegating to ObserveFrontier(rec.Frontier()).
type FrontierObserver interface {
	RoundObserver
	// FrontierOnly reports whether the frontier alone is enough for the
	// coming run. Engines ask once per run, before round 1; composites
	// answer from their members.
	FrontierOnly() bool
	ObserveFrontier(f Frontier) (stop bool, err error)
}

// FrontierOnly reports whether obs can be driven by ObserveFrontier alone
// for the coming run: true for nil (nothing to feed) and for a
// FrontierObserver that says so, false for every Send-level observer.
func FrontierOnly(obs RoundObserver) bool {
	if obs == nil {
		return true
	}
	f, ok := obs.(FrontierObserver)
	return ok && f.FrontierOnly()
}

// ObserveFrontier feeds f to obs, which must satisfy FrontierOnly(obs) — the
// forwarding step of composite frontier observers. A nil obs is a no-op.
func ObserveFrontier(obs RoundObserver, f Frontier) (stop bool, err error) {
	if obs == nil {
		return false, nil
	}
	fo, ok := obs.(FrontierObserver)
	if !ok {
		return false, fmt.Errorf("engine: %T is not a FrontierObserver", obs)
	}
	return fo.ObserveFrontier(f)
}

// FrontierFunc adapts a plain function to a frontier-only FrontierObserver;
// on the Send path it sees RoundRecord.Frontier.
type FrontierFunc func(f Frontier) (stop bool, err error)

// ObserveRound implements RoundObserver.
func (fn FrontierFunc) ObserveRound(rec RoundRecord) (bool, error) { return fn(rec.Frontier()) }

// FrontierOnly implements FrontierObserver.
func (fn FrontierFunc) FrontierOnly() bool { return true }

// ObserveFrontier implements FrontierObserver.
func (fn FrontierFunc) ObserveFrontier(f Frontier) (bool, error) { return fn(f) }

// Options configures a run; the zero value means "no trace, default round
// limit".
type Options struct {
	// Trace records every round's sends into Result.Trace.
	Trace bool
	// MaxRounds bounds the run; 0 means DefaultMaxRounds.
	MaxRounds int
	// Observer, when non-nil, is invoked after every round with the
	// round's record (regardless of Trace) and may stop or abort the run;
	// see RoundObserver. A frontier-only FrontierObserver may be given the
	// round's Frontier instead.
	Observer RoundObserver
	// ParallelThreshold tunes when fastengine's parallel mode splits a
	// round's delivery across goroutines: rounds with fewer receivers than
	// the threshold run sequentially so small-graph suites don't pay
	// goroutine overhead. 0 means the engine's default; 1 forces sharding on
	// every round (used by the differential tests); the other engines never
	// split a round and ignore it.
	ParallelThreshold int
}

// Observe runs the round hook shared by every engine: a no-op without an
// observer; otherwise stop/err are returned for the engine to honour.
func (o Options) Observe(rec RoundRecord) (stop bool, err error) {
	if o.Observer == nil {
		return false, nil
	}
	return o.Observer.ObserveRound(rec)
}

// DefaultMaxRounds is the round limit used when Options.MaxRounds is 0. The
// paper proves termination within 2D+1 <= 2n-1 rounds, so this limit is far
// beyond any terminating single-message run on graphs this package targets.
const DefaultMaxRounds = 1 << 20

// Run executes proto on g sequentially and deterministically: nodes are
// activated in ascending NodeID order and all sorting is stable, so two runs
// with the same inputs produce byte-identical traces. Cancellation of ctx is
// checked once per round, before the round is counted; a cancelled run
// returns the partial Result alongside the context's error.
func Run(ctx context.Context, g *graph.Graph, proto Protocol, opts Options) (Result, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	res := Result{Protocol: proto.Name()}

	automata := make([]NodeAutomaton, g.N())
	nodeFor := func(v graph.NodeID) NodeAutomaton {
		if automata[v] == nil {
			automata[v] = proto.NewNode(v)
		}
		return automata[v]
	}

	// Copy the bootstrap sends before normalising: Bootstrap's slice
	// belongs to the protocol and normalizeSends sorts in place.
	pending := normalizeSends(append([]Send(nil), proto.Bootstrap()...))
	var senders []graph.NodeID // per-batch sender buffer, reused across rounds
	for round := 1; len(pending) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("engine: %s on %s: %w", proto.Name(), g, err)
		}
		if round > maxRounds {
			return res, fmt.Errorf("engine: %s on %s: %w (%d)", proto.Name(), g, ErrMaxRounds, maxRounds)
		}
		res.Rounds = round
		res.TotalMessages += len(pending)
		if opts.Trace {
			res.Trace = append(res.Trace, RoundRecord{Round: round, Sends: append([]Send(nil), pending...)})
		}
		stop, err := opts.Observe(RoundRecord{Round: round, Sends: pending})
		if err != nil {
			return res, fmt.Errorf("engine: %s on %s: observer at round %d: %w", proto.Name(), g, round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}

		// Group this round's deliveries by receiver: re-sort pending — a
		// round-record copy was already captured above — from (From, To)
		// to (To, From) order, so each receiver's senders form one
		// contiguous, ascending run. This replaces the former map bucket
		// plus two sort.Slice calls and is the reference engine's last
		// avoidable per-round allocation hot spot.
		slices.SortFunc(pending, func(a, b Send) int {
			if a.To != b.To {
				return int(a.To) - int(b.To)
			}
			return int(a.From) - int(b.From)
		})
		var next []Send
		for i := 0; i < len(pending); {
			v := pending[i].To
			senders = senders[:0]
			for ; i < len(pending) && pending[i].To == v; i++ {
				senders = append(senders, pending[i].From)
			}
			for _, dst := range nodeFor(v)(round, senders) {
				next = append(next, Send{From: v, To: dst})
			}
		}
		pending = normalizeSends(next)
	}
	res.Terminated = true
	return res, nil
}

// normalizeSends sorts sends by (From, To) and drops duplicates, ensuring a
// canonical per-round representation. Protocols never legitimately emit the
// same (From, To) twice in one round, but normalising makes trace equality
// well-defined.
func normalizeSends(sends []Send) []Send {
	if len(sends) == 0 {
		return nil
	}
	slices.SortFunc(sends, func(a, b Send) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	out := sends[:1]
	for _, s := range sends[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// EqualTraces reports whether two traces are identical round for round. It
// is the acceptance predicate of experiment E10 (engine equivalence).
func EqualTraces(a, b []RoundRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || len(a[i].Sends) != len(b[i].Sends) {
			return false
		}
		for j := range a[i].Sends {
			if a[i].Sends[j] != b[i].Sends[j] {
				return false
			}
		}
	}
	return true
}
