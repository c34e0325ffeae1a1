package analysis

import (
	"fmt"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Bipartite is the streaming odd-cycle detector of the paper's §1.1
// application: watching a single-source flood round by round, a node
// hearing M in two distinct rounds — or the source hearing M at all —
// witnesses an odd cycle (on a bipartite graph neither can happen, Lemma
// 2.1). The analyzer signals readiness at the first witness, so a run
// carrying only this analysis stops at that round; left to run out
// (sim.WithAnalysisStop(false)), it collects every witness and cross-checks
// the receipt signal against the late-termination signal.
type Bipartite struct {
	g      *graph.Graph
	source graph.NodeID
	// firstHeard[v] is the first round v received M, 0 if not yet.
	firstHeard []int
	isWitness  []bool
	witnesses  []graph.NodeID
	found      bool
	ecc        eccCache
}

var (
	_ Analyzer                = (*Bipartite)(nil)
	_ engine.FrontierObserver = (*Bipartite)(nil)
)

func init() {
	Register("bipartite", Family{
		Doc:     "streaming odd-cycle detection on a single-source flood (early-stops at the first witness)",
		Metrics: []string{"bipartite", "witnesses", "eccentricity", "lateRounds"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			n := ctx.Graph.N()
			return &Bipartite{
				g:          ctx.Graph,
				firstHeard: make([]int, n),
				isWitness:  make([]bool, n),
			}, nil
		},
	})
}

// Family implements Analyzer.
func (b *Bipartite) Family() string { return "bipartite" }

// Start implements Analyzer.
func (b *Bipartite) Start(origins []graph.NodeID) error {
	src, err := singleOrigin("bipartite", origins)
	if err != nil {
		return err
	}
	b.source = src
	clear(b.firstHeard)
	clear(b.isWitness)
	b.witnesses = b.witnesses[:0]
	b.found = false
	return nil
}

// ObserveRound implements engine.RoundObserver.
func (b *Bipartite) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return b.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver: the detector reads only
// each round's receivers.
func (b *Bipartite) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver, signalling readiness
// from the first odd-cycle witness on. A Send-derived frontier repeats
// receivers; firstHeard and isWitness make the repeats no-ops. Each
// round's new witnesses are sorted, so Witnesses() does not depend on the
// order an engine yields receivers in.
func (b *Bipartite) ObserveFrontier(f engine.Frontier) (bool, error) {
	fresh := len(b.witnesses)
	for v := range f.Receivers {
		if v == b.source || (b.firstHeard[v] != 0 && b.firstHeard[v] != f.Round) {
			// The source hearing M back, or any node hearing it in a second
			// distinct round, certifies an odd cycle.
			if !b.isWitness[v] {
				b.isWitness[v] = true
				b.witnesses = append(b.witnesses, v)
			}
			b.found = true
			continue
		}
		if b.firstHeard[v] == 0 {
			b.firstHeard[v] = f.Round
		}
	}
	slices.Sort(b.witnesses[fresh:])
	return b.found, nil
}

// Finish implements Analyzer. On runs that flooded to completion the two
// witness signals (double receipts, termination after e(source)) are
// cross-checked — a disagreement means a simulator bug and is returned as
// an error. Both signals presuppose the
// synchronous model (a delay adversary manufactures double receipts on
// bipartite graphs and stretches rounds past e(source)), so like the
// termination analysis, the verdict metrics are emitted only for sync
// runs; non-sync runs report the raw witness count alone.
func (b *Bipartite) Finish(res engine.Result) (Metrics, error) {
	ecc := b.ecc.of(b.g, b.source)
	m := Metrics{
		"witnesses":    float64(len(b.witnesses)),
		"eccentricity": float64(ecc),
	}
	if res.Model != "" && res.Model != "sync" {
		return m, nil
	}
	if res.Terminated {
		byRounds := res.Rounds > ecc
		if b.found != byRounds {
			return nil, fmt.Errorf(
				"witness signals disagree on %s from %d: doubleReceipts=%t lateRounds=%t (rounds=%d, e=%d)",
				b.g, b.source, b.found, byRounds, res.Rounds, ecc)
		}
		m["lateRounds"] = boolMetric(byRounds)
	}
	if res.Terminated || b.found {
		// A verdict needs either a completed flood (no witness can be
		// missing) or a found witness (sound regardless of truncation).
		m["bipartite"] = boolMetric(!b.found)
	}
	return m, nil
}

// Witnesses returns the odd-cycle witness nodes in discovery order: by
// round, ascending within a round. The slice is the analyzer's reusable
// buffer: valid until the next Start.
func (b *Bipartite) Witnesses() []graph.NodeID { return b.witnesses }

// Found reports whether any odd-cycle witness was observed.
func (b *Bipartite) Found() bool { return b.found }
