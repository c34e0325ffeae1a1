// Package analysis makes run measurement a registry-driven axis of the sim
// façade, exactly like protocols, engines, graphs, and execution models:
// every metric the paper reasons about — termination round vs. the
// e(v)/2e(v)+1 closed forms, coverage and receive counts, bipartiteness
// witnesses, BFS spanning trees, the Dijkstra–Scholten detection baseline —
// is a self-registered *streaming* analysis selected by a one-line spec
// string ("coverage", "termination", "quantiles:metric=messages").
//
// An Analyzer is a stop-capable engine.RoundObserver with a run lifecycle:
// Start resets its reusable buffers for one run, ObserveRound folds each
// round's sends into the metrics incrementally (no post-hoc trace re-walk,
// no retained trace), and Finish turns the accumulated state plus the
// engine result into a flat Metrics map. One analyzer instance serves every
// run of a reused sim.Session or sim.RunBatch, so sweep-style workloads pay
// no per-run analysis allocation — the same amortisation contract the fast
// engines keep for their arenas.
//
// The coverage, termination, quantiles, and echo families observe at
// frontier level (engine.FrontierObserver): they need only each round's
// receivers and message count (echo needs nothing from the stream at all),
// so a Set made of them lets the bitset engine skip building Send records.
// The bipartite and spantree families read each round's senders, and one of
// them in a Set puts the whole Set on the Send path.
//
// The package deliberately depends only on the engine/graph layers (plus
// gen for spec recognition, algo for ground truth, stats for summaries, and
// termdetect for the echo baseline), so the sim façade can own it the way
// it owns internal/model. This registry is the repository's one measurement
// path: core.Analyze replays a trace through the coverage analysis for the
// theory checks, and the frozen post-hoc bipartiteness and spanning-tree
// walks live on only as differential-test oracles in the test-only
// analysistest subpackage.
package analysis

import (
	"fmt"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
)

// Context is everything an analysis factory may need to size its buffers
// and recognise the instance it will measure.
type Context struct {
	// Graph is the topology the analysed runs execute on. Never nil.
	Graph *graph.Graph
	// GraphSpec is the canonical graph spec (internal/graph/gen grammar)
	// when the graph came from the registry — graphs built by gen are
	// named with their fully explicit spec, so the sim façade passes
	// Graph.Name(). Empty or unparseable specs simply disable
	// spec-recognising metrics (the termination closed forms).
	GraphSpec string
}

// Metrics is a flat named-metric map — the merged, sink-friendly shape
// every analysis reduces to. Keys are "<family>.<metric>" once merged by a
// Set; individual analyzers return unprefixed names.
type Metrics map[string]float64

// Analyzer is one streaming analysis bound to a graph. The lifecycle per
// run is Start → ObserveRound* → Finish; Start must fully reset any state
// so one analyzer serves every run of a reused Session.
//
// ObserveRound's stop return is a *readiness* signal: true means the
// analyzer has everything it needs and the run may end early for all it
// cares (the bipartite monitor after its first witness, the spanning tree
// once every node is adopted). Whether the run actually stops is the
// composing Set's decision — an analyzer must stay correct when rounds keep
// arriving after it signalled readiness, and must keep signalling readiness
// on those rounds.
type Analyzer interface {
	// Family returns the registered family name, the prefix of the
	// analyzer's merged metric keys.
	Family() string
	// Start begins one run from the given origin set, resetting all
	// per-run state. Analyses with origin-arity requirements (bipartite,
	// spantree, echo need exactly one) reject bad sets here.
	Start(origins []graph.NodeID) error
	engine.RoundObserver
	// Finish derives the run's metrics from the streamed state and the
	// engine result (which carries rounds, totals, outcome, and model).
	// The result's Trace is not consulted — analyses stream.
	Finish(res engine.Result) (Metrics, error)
}

// Set composes several analyzers behind one engine.RoundObserver, with the
// stop policy the façade needs: the observed run is allowed to end early
// only when every member has signalled readiness (and AllowStop is set —
// the façade clears it when a full trace was requested, since an early
// stop would truncate it). The set is frontier-only (engine.FrontierObserver)
// exactly when every member is; see the package doc for which families are.
type Set struct {
	analyzers []Analyzer
	// AllowStop gates analysis-driven early stopping of the observed run.
	AllowStop bool
	done      []bool
}

var _ engine.FrontierObserver = (*Set)(nil)

// NewSet parses and builds one analyzer per spec. Duplicate families are
// rejected: their metrics would collide in the merged map.
func NewSet(specs []string, ctx Context) (*Set, error) {
	s := &Set{AllowStop: true}
	seen := map[string]bool{}
	for _, spec := range specs {
		a, err := Build(spec, ctx)
		if err != nil {
			return nil, err
		}
		if seen[a.Family()] {
			return nil, fmt.Errorf("analysis: duplicate family %q in analysis set (metrics would collide)", a.Family())
		}
		seen[a.Family()] = true
		s.analyzers = append(s.analyzers, a)
	}
	s.done = make([]bool, len(s.analyzers))
	return s, nil
}

// Analyzers returns the set's members in spec order.
func (s *Set) Analyzers() []Analyzer { return s.analyzers }

// Analyzer returns the member of the named family, if present.
func (s *Set) Analyzer(family string) (Analyzer, bool) {
	for _, a := range s.analyzers {
		if a.Family() == family {
			return a, true
		}
	}
	return nil, false
}

// Start begins one run on every member.
func (s *Set) Start(origins []graph.NodeID) error {
	for _, a := range s.analyzers {
		if err := a.Start(origins); err != nil {
			return fmt.Errorf("analysis: %s: %w", a.Family(), err)
		}
	}
	for i := range s.done {
		s.done[i] = false
	}
	return nil
}

// ObserveRound implements engine.RoundObserver: every member sees every
// round (readiness is sticky, so already-ready members are still invoked —
// their later-round observations may refine artifacts), and the set
// requests a stop only when all members are ready.
func (s *Set) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return s.observe(func(a Analyzer) (bool, error) { return a.ObserveRound(rec) })
}

// FrontierOnly implements engine.FrontierObserver: true when every member
// observes at frontier level.
func (s *Set) FrontierOnly() bool {
	for _, a := range s.analyzers {
		if !engine.FrontierOnly(a) {
			return false
		}
	}
	return true
}

// ObserveFrontier implements engine.FrontierObserver with ObserveRound's stop
// policy.
func (s *Set) ObserveFrontier(f engine.Frontier) (bool, error) {
	return s.observe(func(a Analyzer) (bool, error) { return engine.ObserveFrontier(a, f) })
}

// observe feeds one round to every member through observe and applies the
// stop policy.
func (s *Set) observe(observe func(Analyzer) (bool, error)) (bool, error) {
	allDone := len(s.analyzers) > 0
	for i, a := range s.analyzers {
		stop, err := observe(a)
		if err != nil {
			return false, fmt.Errorf("analysis: %s: %w", a.Family(), err)
		}
		s.done[i] = s.done[i] || stop
		allDone = allDone && s.done[i]
	}
	return s.AllowStop && allDone, nil
}

// Finish merges every member's metrics under "<family>.<metric>" keys.
func (s *Set) Finish(res engine.Result) (Metrics, error) {
	if len(s.analyzers) == 0 {
		return nil, nil
	}
	out := Metrics{}
	for _, a := range s.analyzers {
		m, err := a.Finish(res)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Family(), err)
		}
		for k, v := range m {
			out[a.Family()+"."+k] = v
		}
	}
	return out, nil
}

// singleOrigin is the shared origin-arity check of the single-source
// analyses.
func singleOrigin(family string, origins []graph.NodeID) (graph.NodeID, error) {
	if len(origins) != 1 {
		return 0, fmt.Errorf("the %s analysis needs exactly one origin, got %d", family, len(origins))
	}
	return origins[0], nil
}

// boolMetric renders a verdict as 0/1.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// eccCache memoises the last source's eccentricity, so reused sessions
// (repeated runs from one origin, as in benchmarks and serving loops) pay
// the O(n+m) BFS once instead of per run. Sweeps over distinct origins
// still recompute — the cache is one entry deep by design.
type eccCache struct {
	src   graph.NodeID
	ecc   int
	valid bool
}

// of returns e(src) on g, memoised for consecutive same-source calls.
func (c *eccCache) of(g *graph.Graph, src graph.NodeID) int {
	if !c.valid || c.src != src {
		c.src, c.ecc, c.valid = src, algo.Eccentricity(g, src), true
	}
	return c.ecc
}
