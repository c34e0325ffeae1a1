package sim

import (
	"errors"
	"fmt"
	"strings"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/specgrammar"
)

// Spec is everything a protocol factory needs to instantiate a protocol
// for one session: the graph and the origin set.
type Spec struct {
	// Graph is the topology the protocol runs on. Never nil.
	Graph *graph.Graph
	// Origins is the non-empty origin set, validated against Graph by the
	// factory.
	Origins []graph.NodeID
}

// ProtocolFactory instantiates a protocol for one spec. Factories must be
// deterministic functions of the spec so runs remain reproducible.
type ProtocolFactory func(Spec) (engine.Protocol, error)

// Decl implements specgrammar.Family: a protocol takes no parameters.
func (f ProtocolFactory) Decl() specgrammar.Decl { return specgrammar.Decl{Ready: f != nil} }

// ErrUnknownProtocol is wrapped into errors for protocol names outside the
// registry, matchable with errors.Is.
var ErrUnknownProtocol = errors.New("unknown protocol")

// Protocols is the protocol registry. A protocol package registers its
// factory from its init, so importing the package is all it takes to make
// the protocol selectable by name.
var Protocols = specgrammar.NewRegistry[ProtocolFactory](specgrammar.Axis{
	Prefix: "sim", Unknown: ErrUnknownProtocol,
})

// NewProtocol instantiates the named protocol for the spec.
func NewProtocol(name string, spec Spec) (engine.Protocol, error) {
	factory, ok := Protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sim: %w", Protocols.Unknown(name))
	}
	proto, err := factory(spec)
	if err != nil {
		return nil, fmt.Errorf("sim: protocol %s: %w", strings.ToLower(strings.TrimSpace(name)), err)
	}
	return proto, nil
}
