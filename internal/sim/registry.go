package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Spec is everything a protocol factory may need to instantiate a protocol
// for one session: the graph, the origin set, a seed for randomised
// behaviour (fault injection), and free-form string parameters from the
// CLI's -param flags.
type Spec struct {
	// Graph is the topology the protocol runs on. Never nil.
	Graph *graph.Graph
	// Origins is the non-empty origin set, validated against Graph by the
	// factory.
	Origins []graph.NodeID
	// Seed drives any randomised protocol behaviour (e.g. the faulty
	// protocol's loss injector).
	Seed int64
	// Params carries protocol-specific string options; factories must
	// ignore keys they do not know.
	Params map[string]string
}

// Param returns the named parameter, or def when absent.
func (s Spec) Param(key, def string) string {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// ProtocolFactory instantiates a protocol for one spec. Factories must be
// deterministic functions of the spec so runs remain reproducible.
type ProtocolFactory func(Spec) (engine.Protocol, error)

// ErrUnknownProtocol is wrapped into errors for protocol names outside the
// registry, matchable with errors.Is.
var ErrUnknownProtocol = errors.New("unknown protocol")

var (
	registryMu sync.RWMutex
	registry   = map[string]ProtocolFactory{}
)

// Register adds a protocol factory under a name, normally from the
// protocol package's init so importing the package is all it takes to make
// the protocol selectable by string. It panics on empty names or duplicate
// registration — both are programmer errors.
func Register(name string, factory ProtocolFactory) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		panic("sim: Register with empty protocol name")
	}
	if factory == nil {
		panic("sim: Register " + name + " with nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("sim: Register called twice for protocol " + name)
	}
	registry[name] = factory
}

// Protocols enumerates the registered protocol names, sorted.
func Protocols() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewProtocol instantiates the named protocol for the spec.
func NewProtocol(name string, spec Spec) (engine.Protocol, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	registryMu.RLock()
	factory, ok := registry[key]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sim: %w %q (registered: %s)", ErrUnknownProtocol, name, strings.Join(Protocols(), ", "))
	}
	proto, err := factory(spec)
	if err != nil {
		return nil, fmt.Errorf("sim: protocol %s: %w", key, err)
	}
	return proto, nil
}
