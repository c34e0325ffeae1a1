package core

import (
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/sim"
)

// init self-registers amnesiac flooding with the sim façade's protocol
// registry, making it selectable as -protocol amnesiac on any engine.
func init() {
	sim.Protocols.Register("amnesiac", func(spec sim.Spec) (engine.Protocol, error) {
		return NewFlood(spec.Graph, spec.Origins...)
	})
}
