// Package service is the serving layer over the sim façade: an HTTP/JSON
// daemon (cmd/afsimd) that accepts spec-addressed simulation requests —
// graph, protocol, engine, execution model, and analyses all named by the
// same canonical spec strings the registries round-trip — executes them
// over a pool of reusable sim sessions, and streams per-round analysis
// events back as NDJSON or SSE.
//
// The serving discipline is the point, not the transport: per-request
// timeouts via derived contexts, panic isolation (a panicking protocol is a
// 500 response, never a crashed daemon), per-tenant token-bucket admission
// control with in-flight caps, and a bounded run queue with fair
// round-robin dispatch across tenants — so a queue-saturating burst from
// one tenant backpressures (429 + Retry-After) without starving anyone
// else. The same per-round observer seams that make runs cancellable and
// analysable (engine.RoundObserver, context per round) are what make them
// streamable here; the pool reuses engine arenas across requests the way
// one Session reuses them across a sweep group's cells.
//
// Endpoints: POST /v1/run (one run, streamed or unary), POST /v1/sweep (a
// scenario matrix, streamed rows), GET /v1/registry (all five axes),
// GET /healthz. See internal/service/README.md for the wire reference.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/obs"
)

// Config parameterises a Server. The zero value is usable: every field
// documents its default.
type Config struct {
	// Workers is the execution slot count — how many runs execute
	// concurrently across all tenants. Default min(GOMAXPROCS, 8).
	Workers int
	// QueueDepth bounds the wait queue across all tenants; a full queue
	// answers 429. Default 64; 0 keeps the default (use a negative value
	// for an unbuffered no-queue server).
	QueueDepth int
	// DefaultTimeout bounds each run when the request doesn't set one.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-chosen timeouts. Default 5m.
	MaxTimeout time.Duration
	// PoolSessions caps idle pooled sessions across all configurations.
	// Default 64.
	PoolSessions int
	// Tenant is the default per-tenant admission policy. Default: 64
	// requests/s sustained, burst 128, 16 in-flight.
	Tenant TenantLimits
	// TenantOverrides replaces the default policy for named tenants.
	TenantOverrides map[string]TenantLimits
	// TenantHeader names the header carrying the tenant identity.
	// Default "X-Tenant"; absent headers fall back to tenant "default".
	TenantHeader string
	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// MaxSweepCells bounds one sweep's expanded matrix. Default 4096.
	MaxSweepCells int
	// SweepWorkers bounds the scenario workers one sweep uses internally
	// (a sweep occupies one dispatcher slot regardless). Default 4.
	SweepWorkers int
	// Logger receives serving-discipline events (panics, drain) as
	// structured records. Default slog.Default(); use
	// slog.New(slog.DiscardHandler) to silence.
	Logger *slog.Logger
	// Metrics is the registry the server records its afsimd_* families
	// into and exposes on GET /metrics. Default: a fresh private registry
	// (the server always records; sharing one registry across servers or
	// with other subsystems is what this hook is for).
	Metrics *obs.Registry
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.PoolSessions <= 0 {
		c.PoolSessions = 64
	}
	if c.Tenant == (TenantLimits{}) {
		c.Tenant = TenantLimits{Rate: 64, Burst: 128, MaxInFlight: 16}
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 4096
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = 4
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Server is the simulation service. Build one with New, mount Handler on an
// http.Server, and call Drain before exit.
type Server struct {
	cfg      Config
	limiter  *limiter
	disp     *dispatcher
	pool     *sessionPool
	metrics  *serviceMetrics
	started  time.Time
	mu       sync.Mutex
	draining bool
}

// New builds a Server from the config (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		limiter: newLimiter(cfg.Tenant, cfg.TenantOverrides),
		disp:    newDispatcher(cfg.Workers, cfg.QueueDepth),
		metrics: newServiceMetrics(cfg.Metrics),
		started: time.Now(),
	}
	s.pool = newSessionPool(cfg.PoolSessions, s.metrics.poolHits, s.metrics.poolBuilds)
	return s
}

// Handler returns the service's route table, wrapped in the
// request-counting middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.countRequests(mux)
}

// Drain gracefully shuts the server down: new runs are refused with 503,
// queued runs fail with ErrDraining, and Drain returns once every in-flight
// run has finished (or ctx expires, returning its error). The HTTP listener
// itself is the caller's to close — the intended order is Drain, then
// http.Server.Shutdown, so in-flight streams complete before the listener
// dies.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cfg.Logger.Info("service: draining", "running", s.running(), "queued", s.queuedCount())
	select {
	case <-s.disp.drain():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is a snapshot of server occupancy.
type Stats struct {
	Running      int `json:"running"`
	Queued       int `json:"queued"`
	Slots        int `json:"slots"`
	IdleSessions int `json:"idleSessions"`
}

// Stats snapshots the server occupancy.
func (s *Server) Stats() Stats {
	running, queued, slots := s.disp.stats()
	return Stats{Running: running, Queued: queued, Slots: slots, IdleSessions: s.pool.size()}
}

func (s *Server) running() int { r, _, _ := s.disp.stats(); return r }

func (s *Server) queuedCount() int { _, q, _ := s.disp.stats(); return q }

// tenantOf extracts the request's tenant identity.
func (s *Server) tenantOf(r *http.Request) string {
	if t := r.Header.Get(s.cfg.TenantHeader); t != "" {
		return t
	}
	return "default"
}

// errPanic wraps a recovered panic from protocol/engine code.
type errPanic struct {
	val   any
	stack []byte
}

func (e *errPanic) Error() string { return fmt.Sprintf("run panicked: %v", e.val) }

// executeRun runs one normalised request on a session taken from the pool
// (sessionPool.get), streaming rounds to obs (may be nil). It owns the
// serving discipline around the run:
//
//   - per-request timeout: the run context is ctx bounded by nr.timeout;
//     timedOut reports that the watchdog (not the caller) expired it;
//   - panic isolation: a panic inside protocol/engine code is recovered
//     into an *errPanic and the session is discarded, never repooled;
//   - pooling: on clean completion the session goes back for reuse.
//
// The returned Result's Metrics map is freshly allocated per run
// (analysis.Set.Finish), so it stays valid after the session is repooled.
func (s *Server) executeRun(ctx context.Context, nr *runSpec, ps *pooledSession, obs engine.RoundObserver) (res engine.Result, g graphInfo, timedOut bool, err error) {
	g = graphInfo{name: ps.g.Name(), n: ps.g.N(), m: ps.g.M()}
	runCtx, cancel := context.WithTimeout(ctx, nr.timeout)
	defer cancel()

	panicked := true // until proven otherwise: a non-local exit repools nothing
	defer func() {
		if panicked {
			if r := recover(); r != nil {
				stack := debug.Stack()
				s.cfg.Logger.Error("service: recovered run panic", "panic", r, "stack", string(stack))
				s.metrics.panics.Inc()
				err = &errPanic{val: r, stack: stack}
				return
			}
			// A non-panic early exit (shouldn't happen) still drops ps.
			return
		}
		ps.relay.target = nil
		s.pool.put(nr, ps)
	}()

	ps.relay.target = obs
	start := time.Now()
	res, err = ps.sess.RunFrom(runCtx, nr.origins)
	elapsed := time.Since(start)
	panicked = false
	ps.relay.target = nil

	// The watchdog expired, as opposed to the caller hanging up: the run
	// context is deadline-exceeded while the parent is still live.
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		timedOut = true
	}
	if timedOut {
		s.metrics.runTimeouts.Inc()
	}
	if err == nil {
		s.metrics.recordRun(elapsed, res.Rounds, res.TotalMessages)
		s.metrics.runPhases.With("build").Observe(res.Phases.Build.Seconds())
		s.metrics.runPhases.With("run").Observe(res.Phases.Run.Seconds())
		s.metrics.runPhases.With("analyze").Observe(res.Phases.Analyze.Seconds())
	}
	return res, g, timedOut, err
}

// graphInfo carries the built graph's identity out of executeRun (the
// *graph.Graph itself stays owned by the pooled session).
type graphInfo struct {
	name string
	n, m int
}
