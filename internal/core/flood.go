// Package core implements Amnesiac Flooding (AF), the paper's primary
// contribution (Definition 1.1):
//
// A distinguished node ℓ sends a message M to all its neighbours in round 1.
// In subsequent rounds, every node receiving M forwards a copy of M to
// every, and only those, nodes it did not receive the message from in that
// round. Nodes keep no memory of earlier rounds.
//
// The package provides the AF protocol for the synchronous engines, a
// convenience Run wrapper, and the analysis report (round-sets R_i, receive
// counts, message totals) used by the theory verifiers and the experiment
// harness.
package core

import (
	"errors"
	"fmt"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Flood is the Amnesiac Flooding protocol instantiated for a graph and a set
// of origins. It implements engine.Protocol. The paper studies a single
// origin; multiple origins are the natural generalisation (all origins send
// in round 1) and are exercised by the extension experiments.
type Flood struct {
	g       *graph.Graph
	origins []graph.NodeID
}

var _ engine.BitsetProtocol = (*Flood)(nil)

// Errors reported by NewFlood, matchable with errors.Is.
var (
	// ErrNoOrigin is returned when no origin is supplied.
	ErrNoOrigin = errors.New("amnesiac flooding needs at least one origin")
	// ErrBadOrigin is returned when an origin is not a node of the graph.
	ErrBadOrigin = errors.New("origin is not a node of the graph")
)

// NewFlood returns the AF protocol for g starting from the given origins.
// Duplicate origins are collapsed.
func NewFlood(g *graph.Graph, origins ...graph.NodeID) (*Flood, error) {
	if len(origins) == 0 {
		return nil, ErrNoOrigin
	}
	seen := make(map[graph.NodeID]bool, len(origins))
	uniq := make([]graph.NodeID, 0, len(origins))
	for _, o := range origins {
		if !g.HasNode(o) {
			return nil, fmt.Errorf("core: origin %d on %s: %w", o, g, ErrBadOrigin)
		}
		if !seen[o] {
			seen[o] = true
			uniq = append(uniq, o)
		}
	}
	slices.Sort(uniq)
	return &Flood{g: g, origins: uniq}, nil
}

// MustNewFlood is NewFlood for inputs known to be valid; it panics on error
// and is intended for examples and generators-driven experiments.
func MustNewFlood(g *graph.Graph, origins ...graph.NodeID) *Flood {
	f, err := NewFlood(g, origins...)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements engine.Protocol.
func (f *Flood) Name() string {
	return "amnesiac-flooding"
}

// Origins returns the sorted origin set.
func (f *Flood) Origins() []graph.NodeID {
	return append([]graph.NodeID(nil), f.origins...)
}

// Bootstrap implements engine.Protocol: every origin sends M to all its
// neighbours in round 1.
func (f *Flood) Bootstrap() []engine.Send {
	var sends []engine.Send
	for _, o := range f.origins {
		for _, nbr := range f.g.Neighbors(o) {
			sends = append(sends, engine.Send{From: o, To: nbr})
		}
	}
	return sends
}

// NewNode implements engine.Protocol. The returned automaton is stateless —
// a pure function of the current round's senders — which is the paper's
// amnesia requirement: a node forwards M to exactly the complement of its
// senders within its neighbourhood.
func (f *Flood) NewNode(v graph.NodeID) engine.NodeAutomaton {
	nbrs := f.g.Neighbors(v)
	return func(_ int, senders []graph.NodeID) []graph.NodeID {
		return complementSorted(nbrs, senders)
	}
}

// BitsetRule implements engine.BitsetProtocol: amnesiac flooding's whole
// round is "forward to the complement of the sender set", every round, which
// is exactly RuleComplement — the bitset engine's sweep and the fast
// engine's allocation-free per-receiver merge.
func (f *Flood) BitsetRule() engine.BitsetRule {
	return engine.RuleComplement
}

// complementSorted returns nbrs \ senders. Both inputs are sorted; the
// result is freshly allocated and sorted.
func complementSorted(nbrs, senders []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(nbrs))
	i := 0
	for _, nbr := range nbrs {
		for i < len(senders) && senders[i] < nbr {
			i++
		}
		if i < len(senders) && senders[i] == nbr {
			continue
		}
		out = append(out, nbr)
	}
	return out
}
