// Package classic implements the textbook flooding algorithm that the paper
// contrasts amnesiac flooding with: every node keeps a persistent "seen"
// flag, forwards the message to all neighbours except the ones it arrived
// from the first time it sees it, and ignores every later copy.
//
// It serves as the baseline of experiment E8: same synchronous engine, same
// graphs, so round counts, message totals, and persistent per-node memory
// are directly comparable with amnesiac flooding.
package classic

import (
	"fmt"
	"slices"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Flood is classic flag-based flooding, instantiated for a graph and origin
// set. It implements engine.Protocol.
type Flood struct {
	g       *graph.Graph
	origins []graph.NodeID
}

var _ engine.BitsetProtocol = (*Flood)(nil)

// NewFlood returns classic flooding on g from the given origins. Origin
// validation matches core.NewFlood.
func NewFlood(g *graph.Graph, origins ...graph.NodeID) (*Flood, error) {
	if len(origins) == 0 {
		return nil, core.ErrNoOrigin
	}
	seen := make(map[graph.NodeID]bool, len(origins))
	uniq := make([]graph.NodeID, 0, len(origins))
	for _, o := range origins {
		if !g.HasNode(o) {
			return nil, fmt.Errorf("classic: origin %d on %s: %w", o, g, core.ErrBadOrigin)
		}
		if !seen[o] {
			seen[o] = true
			uniq = append(uniq, o)
		}
	}
	slices.Sort(uniq)
	return &Flood{g: g, origins: uniq}, nil
}

// MustNewFlood is NewFlood that panics on error, for examples and
// experiments with inputs valid by construction.
func MustNewFlood(g *graph.Graph, origins ...graph.NodeID) *Flood {
	f, err := NewFlood(g, origins...)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements engine.Protocol.
func (f *Flood) Name() string {
	return "classic-flooding"
}

// Origins returns the sorted origin set.
func (f *Flood) Origins() []graph.NodeID {
	return append([]graph.NodeID(nil), f.origins...)
}

// Bootstrap implements engine.Protocol: origins mark themselves seen and
// send to all neighbours in round 1, exactly like amnesiac flooding's first
// round.
func (f *Flood) Bootstrap() []engine.Send {
	var sends []engine.Send
	for _, o := range f.origins {
		for _, nbr := range f.g.Neighbors(o) {
			sends = append(sends, engine.Send{From: o, To: nbr})
		}
	}
	return sends
}

// NewNode implements engine.Protocol. Unlike amnesiac flooding, the
// automaton closes over one persistent bit: whether this node has already
// seen the message. The first delivery triggers a forward to the complement
// of the senders; every later delivery is dropped. That single bit is the
// memory the paper's amnesiac variant removes.
func (f *Flood) NewNode(v graph.NodeID) engine.NodeAutomaton {
	nbrs := f.g.Neighbors(v)
	seen := false
	for _, o := range f.origins {
		if o == v {
			seen = true // origins never re-forward
		}
	}
	return func(_ int, senders []graph.NodeID) []graph.NodeID {
		if seen {
			return nil
		}
		seen = true
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
}

// BitsetRule implements engine.BitsetProtocol: classic flooding is the
// complement rule gated by the per-node seen bit — forward once, then stay
// silent — which the bitset and fast engines execute as RuleComplementOnce
// with the bootstrap senders (the connected origins) pre-marked seen.
func (f *Flood) BitsetRule() engine.BitsetRule {
	return engine.RuleComplementOnce
}

// PersistentBitsPerNode returns the persistent state classic flooding needs
// per node between rounds: the one "seen" flag. Amnesiac flooding needs
// zero. Used by the E8 comparison tables.
func PersistentBitsPerNode() int {
	return 1
}
