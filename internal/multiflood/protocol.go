package multiflood

import (
	"fmt"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/sim"
)

// Protocol is the union wavefront of several simultaneous amnesiac floods
// as a replayable engine.Protocol: one flood per origin, all starting in
// round 1, superimposed edge-wise per round (an edge carrying copies of
// several messages in one round appears once — the engine model's single
// shared payload M).
//
// Concurrent amnesiac floods do not interact logically — each message's
// schedule equals its solo run — so the union schedule is fully determined
// at construction time. The constructor simulates every solo flood on the
// reference engine and the protocol replays the superposition; every node's
// replayed sends in round r+1 respond to a receipt in round r (each
// message's forwarding needs a receipt of that message), so the replay is a
// well-formed synchronous protocol and runs byte-identically on all four
// engines.
type Protocol struct {
	origins   []graph.NodeID
	bootstrap []engine.Send
	// next[r][v] lists v's destinations for the sends delivered in round
	// r, ascending; rounds beyond the schedule are absent.
	next []map[graph.NodeID][]graph.NodeID
}

var _ engine.Protocol = (*Protocol)(nil)

// NewProtocol builds the union replay of one amnesiac flood per origin,
// all starting simultaneously in round 1.
func NewProtocol(g *graph.Graph, origins ...graph.NodeID) (*Protocol, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("multiflood: no origins on %s", g)
	}
	res, err := Run(g, AllFromOrigins(origins))
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		origins: append([]graph.NodeID(nil), origins...),
		next:    make([]map[graph.NodeID][]graph.NodeID, res.Rounds+1),
	}
	// Superimpose the solo traces: union of distinct (From, To) per round.
	union := make([]map[engine.Send]bool, res.Rounds+1)
	for _, solo := range res.PerBroadcast {
		for _, rec := range solo.Trace {
			if union[rec.Round] == nil {
				union[rec.Round] = map[engine.Send]bool{}
			}
			for _, s := range rec.Sends {
				union[rec.Round][s] = true
			}
		}
	}
	for round := 1; round <= res.Rounds; round++ {
		byFrom := map[graph.NodeID][]graph.NodeID{}
		for s := range union[round] {
			byFrom[s.From] = append(byFrom[s.From], s.To)
		}
		for from, dsts := range byFrom {
			slices.Sort(dsts)
			if round == 1 {
				for _, to := range dsts {
					p.bootstrap = append(p.bootstrap, engine.Send{From: from, To: to})
				}
				continue
			}
			if p.next[round] == nil {
				p.next[round] = map[graph.NodeID][]graph.NodeID{}
			}
			p.next[round][from] = dsts
		}
	}
	slices.SortFunc(p.bootstrap, func(a, b engine.Send) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	return p, nil
}

// Name implements engine.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("multiflood[%d sources]", len(p.origins))
}

// Origins returns the origin set, one flood each.
func (p *Protocol) Origins() []graph.NodeID {
	return append([]graph.NodeID(nil), p.origins...)
}

// Bootstrap implements engine.Protocol: the union of every flood's round-1
// sends.
func (p *Protocol) Bootstrap() []engine.Send {
	return p.bootstrap
}

// NewNode implements engine.Protocol by replaying v's slice of the union
// schedule: the sends answered at round r are exactly the scheduled
// deliveries of round r+1.
func (p *Protocol) NewNode(v graph.NodeID) engine.NodeAutomaton {
	return func(round int, _ []graph.NodeID) []graph.NodeID {
		if round+1 >= len(p.next) || p.next[round+1] == nil {
			return nil
		}
		return p.next[round+1][v]
	}
}

// init self-registers the union replay with the sim façade's protocol
// registry, making simultaneous multi-message broadcast selectable as
// -protocol multiflood on any engine.
func init() {
	sim.Protocols.Register("multiflood", func(spec sim.Spec) (engine.Protocol, error) {
		return NewProtocol(spec.Graph, spec.Origins...)
	})
}
