package service

import (
	"sync"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/sim"
)

// This file is the session pool: pooled sim.Sessions keyed by run
// configuration, so repeated requests for the same (graph, protocol,
// engine, model, analyses, seed) reuse one long-lived Session — and
// with it the fast engine's arenas — instead of rebuilding graph and engine
// per request (the RunBatch amortisation, lifted across HTTP requests).
// Sessions are not concurrency-safe, so the pool hands out exclusive
// ownership: get pops or builds, put returns. A session that saw a panic is
// never returned (its arenas may be mid-update); it is simply dropped.

// relayObserver is the indirection that makes pooled sessions streamable:
// the Session is built once with the relay as its observer, and each
// request points the relay at its own per-request observer for the duration
// of its run. A Session runs one request at a time (exclusive ownership),
// so target needs no locking. The relay is frontier-only whenever its
// current target is (or it has none), so it never forces the bitset engine
// to build Send records on its own account.
type relayObserver struct {
	target engine.RoundObserver
}

var _ engine.FrontierObserver = (*relayObserver)(nil)

// ObserveRound implements engine.RoundObserver.
func (r *relayObserver) ObserveRound(rec engine.RoundRecord) (bool, error) {
	if r.target == nil {
		return false, nil
	}
	return r.target.ObserveRound(rec)
}

// FrontierOnly implements engine.FrontierObserver from the current target.
func (r *relayObserver) FrontierOnly() bool { return engine.FrontierOnly(r.target) }

// ObserveFrontier implements engine.FrontierObserver.
func (r *relayObserver) ObserveFrontier(f engine.Frontier) (bool, error) {
	return engine.ObserveFrontier(r.target, f)
}

// pooledSession is one reusable run context: the built graph, the Session
// over it, and the relay the Session streams through.
type pooledSession struct {
	g     *graph.Graph
	sess  *sim.Session
	relay *relayObserver
}

// sessionPool holds idle sessions per poolKey, bounded by a global cap.
type sessionPool struct {
	mu    sync.Mutex
	idle  map[string][]*pooledSession
	count int // total idle sessions across all keys
	cap   int
	// hits/builds count pool reuses vs. fresh constructions (the pool's
	// hit ratio is hits / (hits + builds)); nil-safe for bare pools.
	hits, builds *obs.Counter
}

func newSessionPool(capacity int, hits, builds *obs.Counter) *sessionPool {
	if capacity < 0 {
		capacity = 0
	}
	return &sessionPool{idle: map[string][]*pooledSession{}, cap: capacity, hits: hits, builds: builds}
}

// get returns an idle session for the run configuration, building one when
// none is pooled. The caller owns the session until it calls put (or drops
// it after a panic).
func (p *sessionPool) get(nr *runSpec) (*pooledSession, error) {
	key := nr.poolKey()
	p.mu.Lock()
	if q := p.idle[key]; len(q) > 0 {
		ps := q[len(q)-1]
		p.idle[key] = q[:len(q)-1]
		p.count--
		p.mu.Unlock()
		if p.hits != nil {
			p.hits.Inc()
		}
		return ps, nil
	}
	p.mu.Unlock()
	if p.builds != nil {
		p.builds.Inc()
	}
	return buildSession(nr)
}

// put returns an idle session to the pool, dropping it when the pool is at
// capacity. The relay target must already be cleared.
func (p *sessionPool) put(nr *runSpec, ps *pooledSession) {
	key := nr.poolKey()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count >= p.cap {
		return
	}
	p.idle[key] = append(p.idle[key], ps)
	p.count++
}

// size reports the idle-session count (for stats).
func (p *sessionPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// buildSession constructs a fresh graph + Session for one run
// configuration. Origins are deliberately NOT baked in: requests bind them
// per run via Session.RunFrom, which is what lets differently-originated
// requests share one pooled session.
func buildSession(nr *runSpec) (*pooledSession, error) {
	g, err := gen.Build(nr.graph, nr.seed)
	if err != nil {
		return nil, err
	}
	relay := &relayObserver{}
	opts := []sim.Option{
		sim.WithProtocol(nr.protocol),
		sim.WithEngine(nr.kind),
		sim.WithSeed(nr.seed),
		sim.WithMaxRounds(nr.maxRounds),
		sim.WithObserver(relay),
	}
	if nr.model != "" {
		opts = append(opts, sim.WithModel(nr.model))
	}
	if len(nr.analyses) > 0 {
		opts = append(opts, sim.WithAnalysis(nr.analyses...))
	}
	sess, err := sim.New(g, opts...)
	if err != nil {
		return nil, err
	}
	return &pooledSession{g: g, sess: sess, relay: relay}, nil
}
