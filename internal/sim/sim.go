// Package sim is the public-facing façade of the simulator: one composable,
// cancellable, registry-driven entry point to every protocol and every
// synchronous engine in the repository.
//
// The paper's central claim (Hussak & Trehan, PODC 2019) is that one
// memoryless protocol runs identically on any synchronous substrate.  This
// package makes the code match the claim: protocols self-register by name
// (amnesiac, classic, multiflood), engines are values of one EngineKind
// enum, and a Session composed with functional options runs any protocol ×
// engine pair:
//
//	sess, err := sim.New(g,
//	        sim.WithProtocol("amnesiac"),
//	        sim.WithEngine(sim.Fast),
//	        sim.WithOrigins(0),
//	        sim.WithMaxRounds(1024),
//	        sim.WithObserver(obs))
//	res, err := sess.Run(ctx)
//
// The execution model is a fourth registry-driven axis (internal/model):
// WithModel("adversary:collision") runs the paper's Section 4 asynchronous
// variant under a delay adversary, WithModel("schedule:blink:period=2")
// floods a dynamic network under an edge schedule (message loss and node
// crashes are schedules too: "schedule:loss:p=0.05",
// "schedule:crash:nodes=3,round=2"), and the default "sync" is the
// synchronous model above. Non-sync runs execute on one session-owned
// model engine, where an adversary delays and a schedule loses copies of
// M, and can end in a certified-non-termination verdict (Result.Outcome,
// Result.Certificate) as well as termination.
//
// Measurement is a fifth registry-driven axis (internal/analysis):
// WithAnalysis("coverage", "termination", "bipartite", ...) attaches
// streaming analyses that fold each round into their metrics as it happens
// — no trace retained, no post-hoc re-walk — and merge them into
// Result.Metrics under "<family>.<metric>" keys, with typed artifacts
// (receive counts, spanning trees, odd-cycle witnesses) on the Session
// accessors.
//
// All engines accept a context.Context (cancellation checked per round)
// and a stop-capable engine.RoundObserver, so runs can be bounded,
// cancelled, or ended early the moment an observer has seen enough — the
// building blocks any serving layer needs.  RunBatch amortises engine
// arenas across sweep-style workloads.
package sim

import (
	"errors"
	"fmt"
	"strings"
)

// EngineKind selects which synchronous engine executes a run.
type EngineKind int

// Available engines. All four produce byte-identical traces on every
// protocol they support (asserted by experiment E10, the fastengine
// differential tests, and the bitengine differential tests); the first three
// run every protocol, Bitset only protocols declaring an
// engine.BitsetProtocol rule (amnesiac and classic — validated at Session
// construction).
const (
	// Sequential is the deterministic single-goroutine reference engine.
	Sequential EngineKind = iota + 1
	// Channels is the goroutine-per-node, channel-per-edge engine.
	Channels
	// Fast is the zero-allocation CSR engine (fastengine package).
	Fast
	// Bitset is the word-parallel frontier engine (bitengine package):
	// rounds are OR/AND-NOT sweeps over edge-slot bitsets laid over the
	// graph's own CSR, for million-node graphs.
	Bitset
)

// ErrUnknownEngine is wrapped into errors for engine kinds or names outside
// the registered set, matchable with errors.Is.
var ErrUnknownEngine = errors.New("unknown engine")

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Channels:
		return "channels"
	case Fast:
		return "fast"
	case Bitset:
		return "bitset"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// valid reports whether k is one of the four defined engines.
func (k EngineKind) valid() bool {
	return k >= Sequential && k <= Bitset
}

// EngineNames lists the accepted ParseEngine spellings, for flag usage
// strings.
func EngineNames() []string {
	return []string{"sequential", "channels", "fast", "bitset"}
}

// ParseEngine resolves an engine name (as accepted by the -engine CLI
// flags) into its kind.
func ParseEngine(name string) (EngineKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "sequential", "seq":
		return Sequential, nil
	case "channels", "chan":
		return Channels, nil
	case "fast":
		return Fast, nil
	case "bitset", "bit":
		return Bitset, nil
	default:
		return 0, fmt.Errorf("sim: %w %q (want one of %s)", ErrUnknownEngine, name, strings.Join(EngineNames(), ", "))
	}
}
