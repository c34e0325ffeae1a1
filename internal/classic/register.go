package classic

import (
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/sim"
)

// init self-registers classic flag-based flooding with the sim façade's
// protocol registry, making it selectable as -protocol classic on any
// engine.
func init() {
	sim.Protocols.Register("classic", func(spec sim.Spec) (engine.Protocol, error) {
		return NewFlood(spec.Graph, spec.Origins...)
	})
}
