package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// Session is a configured simulation: one graph, one protocol, one engine,
// run options. Build one with New and functional options, then call Run (or
// RunBatch) as many times as needed — a Session is reusable and, on the
// fast engines, amortises its arenas across runs. It is not safe for
// concurrent use; run several Sessions for that.
type Session struct {
	g             *graph.Graph
	kind          EngineKind
	protoName     string
	proto         engine.Protocol // explicit instance, overrides protoName
	modelSpec     string          // raw WithModel spec; parsed in New
	origins       []graph.NodeID
	seed          int64
	params        map[string]string
	maxRounds     int
	trace         bool
	observer      engine.RoundObserver
	analysisSpecs []string
	analysisStop  bool

	built    engine.Protocol
	mdl      model.Model        // built execution model (sync: both nil)
	analyses *analysis.Set      // built analysis set (nil without WithAnalysis)
	fast     *fastengine.Engine // lazily created, reused across runs
	bit      *bitengine.Engine  // lazily created, reused across runs
	async    *model.AsyncEngine // lazily created, reused across runs
	dyn      *model.DynamicEngine
}

// Option configures a Session under construction.
type Option func(*Session)

// WithProtocol selects a registered protocol by name (see Protocols).
// Default: "amnesiac".
func WithProtocol(name string) Option {
	return func(s *Session) { s.protoName = name; s.proto = nil }
}

// WithProtocolInstance bypasses the registry with an explicit protocol
// instance — for callers composing custom protocols. WithOrigins, WithSeed,
// and WithParam have no effect on an explicit instance, and RunBatch is
// unavailable (it needs a factory to rebuild per source).
func WithProtocolInstance(p engine.Protocol) Option {
	return func(s *Session) { s.proto = p; s.protoName = "" }
}

// WithEngine selects the synchronous substrate. Default: Sequential.
func WithEngine(kind EngineKind) Option {
	return func(s *Session) { s.kind = kind }
}

// WithModel selects the execution model by spec (internal/model grammar:
// "sync", "adversary:collision", "schedule:blink:period=2,phase=1", ...).
// Default: "sync", the paper's synchronous model, executed by the engine
// chosen with WithEngine. Non-sync models run on their own dedicated
// substrate (model.AsyncEngine / model.DynamicEngine) — the WithEngine
// choice does not apply to them and Result.Engine reports "async" or
// "dynamic" — and execute amnesiac flooding only, so they compose with
// every option except a non-amnesiac protocol. Random model families
// (adversary:random) consume WithSeed.
func WithModel(spec string) Option {
	return func(s *Session) { s.modelSpec = spec }
}

// WithOrigins sets the origin node set handed to the protocol factory.
// Default: node 0.
func WithOrigins(origins ...graph.NodeID) Option {
	return func(s *Session) { s.origins = append([]graph.NodeID(nil), origins...) }
}

// WithSeed sets the seed handed to the protocol factory (randomised
// protocols such as faulty use it; deterministic ones ignore it).
func WithSeed(seed int64) Option {
	return func(s *Session) { s.seed = seed }
}

// WithParam passes one protocol-specific string parameter to the factory.
func WithParam(key, value string) Option {
	return func(s *Session) {
		if s.params == nil {
			s.params = map[string]string{}
		}
		s.params[key] = value
	}
}

// WithMaxRounds bounds each run; 0 means engine.DefaultMaxRounds.
func WithMaxRounds(n int) Option {
	return func(s *Session) { s.maxRounds = n }
}

// WithTrace enables per-round trace recording into Result.Trace.
func WithTrace(on bool) Option {
	return func(s *Session) { s.trace = on }
}

// WithObserver streams rounds to obs as they happen; obs may stop or abort
// the run (see engine.RoundObserver). Compose several with MultiObserver.
func WithObserver(obs engine.RoundObserver) Option {
	return func(s *Session) { s.observer = obs }
}

// WithAnalysis attaches streaming analyses by spec (internal/analysis
// grammar: "coverage", "termination", "bipartite", "spantree", "echo",
// "quantiles:metric=messages", ...). Each analysis observes the run round
// by round — no trace is retained or re-walked — and its metrics are merged
// into Result.Metrics under "<family>.<metric>" keys; typed artifacts
// (receive counts, spanning tree, witnesses) are reachable through the
// Session accessors. Analyses marked stop-capable may end the run early
// once every attached analysis has what it needs, unless WithTrace is set
// (an early stop would truncate the trace) or WithAnalysisStop(false)
// disabled stopping. Repeated options accumulate.
func WithAnalysis(specs ...string) Option {
	return func(s *Session) { s.analysisSpecs = append(s.analysisSpecs, specs...) }
}

// WithAnalysisStop gates analysis-driven early stopping (default true):
// pass false to always run to the natural end, e.g. so the bipartite
// analysis collects every witness instead of stopping at the first —
// without paying for a trace it does not need. It does not affect
// WithObserver observers.
func WithAnalysisStop(enabled bool) Option {
	return func(s *Session) { s.analysisStop = enabled }
}

// New validates the options, instantiates the protocol, and returns a
// ready-to-run Session.
func New(g *graph.Graph, opts ...Option) (*Session, error) {
	if g == nil {
		return nil, errors.New("sim: nil graph")
	}
	s := &Session{g: g, kind: Sequential, protoName: "amnesiac", analysisStop: true}
	for _, opt := range opts {
		opt(s)
	}
	if !s.kind.valid() {
		return nil, fmt.Errorf("sim: %w kind %d", ErrUnknownEngine, int(s.kind))
	}
	if len(s.origins) == 0 {
		s.origins = []graph.NodeID{0}
	}
	if s.modelSpec == "" {
		s.mdl = model.Model{Spec: model.SyncSpec()}
	} else {
		mdl, err := model.Build(s.modelSpec, s.seed)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.mdl = mdl
	}
	if !s.mdl.Spec.IsSync() {
		// The model engines execute amnesiac flooding only (see the
		// internal/model package comment); reject other protocols rather
		// than silently running the wrong one. Compare the normalised
		// name, matching NewProtocol's case/whitespace folding.
		if s.proto != nil || strings.ToLower(strings.TrimSpace(s.protoName)) != "amnesiac" {
			name := s.protoName
			if s.proto != nil {
				name = s.proto.Name()
			}
			return nil, fmt.Errorf("sim: model %s runs only the amnesiac protocol (got %q)", s.mdl.Spec, name)
		}
	}
	if len(s.analysisSpecs) > 0 {
		set, err := analysis.NewSet(s.analysisSpecs, analysis.Context{Graph: s.g, GraphSpec: s.g.Name()})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		// Early stopping would truncate a requested trace; analyses stay
		// attached but lose their stop capability. WithAnalysisStop(false)
		// disables it explicitly.
		set.AllowStop = s.analysisStop && !s.trace
		s.analyses = set
	}
	if s.proto != nil {
		s.built = s.proto
	} else {
		built, err := NewProtocol(s.protoName, s.spec(s.origins))
		if err != nil {
			return nil, err
		}
		s.built = built
	}
	// The bitset engine executes declared set-operation rules only; reject
	// protocols without one here rather than at the first Run, mirroring the
	// model/protocol compatibility check above.
	if s.kind == Bitset && s.mdl.Spec.IsSync() && !bitengine.Supports(s.built) {
		return nil, fmt.Errorf("sim: engine bitset runs only bitset-rule protocols (amnesiac, classic; got %q): %w",
			s.built.Name(), bitengine.ErrUnsupportedProtocol)
	}
	return s, nil
}

// spec assembles the factory spec for an origin set.
func (s *Session) spec(origins []graph.NodeID) Spec {
	return Spec{Graph: s.g, Origins: origins, Seed: s.seed, Params: s.params}
}

// options assembles the engine options for one run.
func (s *Session) options() engine.Options {
	return engine.Options{Trace: s.trace, MaxRounds: s.maxRounds, Observer: s.observer}
}

// Protocol returns the protocol instance the session runs.
func (s *Session) Protocol() engine.Protocol { return s.built }

// Engine returns the session's engine kind.
func (s *Session) Engine() EngineKind { return s.kind }

// Model returns the session's parsed execution-model spec.
func (s *Session) Model() model.Spec { return s.mdl.Spec }

// Analysis returns the attached analyzer of the named family, if any —
// the untyped artifact accessor. After a Run, the analyzer holds that run's
// streamed state (overwritten by the next Run/RunBatch call).
func (s *Session) Analysis(family string) (analysis.Analyzer, bool) {
	if s.analyses == nil {
		return nil, false
	}
	return s.analyses.Analyzer(family)
}

// Coverage returns the coverage analyzer — per-node receive counts and
// first/last receive rounds — when the session runs the coverage analysis.
func (s *Session) Coverage() (*analysis.Coverage, bool) {
	a, ok := s.Analysis("coverage")
	if !ok {
		return nil, false
	}
	c, ok := a.(*analysis.Coverage)
	return c, ok
}

// SpanTree returns a copy of the BFS spanning tree of the last run when the
// session runs the spantree analysis.
func (s *Session) SpanTree() (*analysis.Tree, bool) {
	a, ok := s.Analysis("spantree")
	if !ok {
		return nil, false
	}
	t, ok := a.(*analysis.SpanTree)
	if !ok {
		return nil, false
	}
	return t.Tree(), true
}

// Witnesses returns the odd-cycle witnesses of the last run when the
// session runs the bipartite analysis (the slice is reused by the next
// run).
func (s *Session) Witnesses() ([]graph.NodeID, bool) {
	a, ok := s.Analysis("bipartite")
	if !ok {
		return nil, false
	}
	b, ok := a.(*analysis.Bipartite)
	if !ok {
		return nil, false
	}
	return b.Witnesses(), true
}

// Run executes the session's protocol once. The context is honoured by
// every engine with a per-round cancellation check; the returned Result is
// stamped with the substrate name, the model spec, the outcome, and the
// wall-clock duration.
func (s *Session) Run(ctx context.Context) (engine.Result, error) {
	// The protocol was built at New time, so the per-run build phase is 0.
	return s.runProto(ctx, s.built, s.origins, 0)
}

// runProto executes one protocol instance — the façade's single substrate
// dispatch. Non-sync models run on session-owned model engines; the sync
// model runs on the configured synchronous engine, with the Fast and
// Parallel kinds on a session-owned fastengine.Engine. All session-owned
// engines are reused across calls, so repeated runs amortise their arenas;
// New has already validated s.kind, so the default arm is Sequential.
// build is the already-spent per-run protocol construction time, stamped
// into Result.Phases alongside the run and analyze phases measured here —
// the per-run timing surfaced in service responses and suite telemetry.
func (s *Session) runProto(ctx context.Context, proto engine.Protocol, origins []graph.NodeID, build time.Duration) (engine.Result, error) {
	start := time.Now()
	opts := s.options()
	if s.analyses != nil {
		if err := s.analyses.Start(origins); err != nil {
			return engine.Result{}, fmt.Errorf("sim: %w", err)
		}
		if opts.Observer == nil {
			opts.Observer = s.analyses
		} else {
			opts.Observer = MultiObserver{opts.Observer, s.analyses}
		}
	}
	var (
		res engine.Result
		err error
	)
	switch s.mdl.Spec.Kind {
	case model.KindAdversary:
		if s.async == nil {
			s.async = model.NewAsync(s.g, s.mdl.Adversary)
		}
		res, err = s.async.Run(ctx, origins, opts)
		res.Engine = "async"
	case model.KindSchedule:
		if s.dyn == nil {
			s.dyn = model.NewDynamic(s.g, s.mdl.Schedule)
		}
		res, err = s.dyn.Run(ctx, origins, opts)
		res.Engine = "dynamic"
	default:
		switch s.kind {
		case Fast, Parallel:
			if s.fast == nil {
				s.fast = fastengine.New(s.g)
				if s.kind == Parallel {
					s.fast.Parallel(0)
				}
			}
			res, err = s.fast.Run(ctx, proto, opts)
		case Bitset:
			if s.bit == nil {
				s.bit = bitengine.New(s.g)
			}
			res, err = s.bit.Run(ctx, proto, opts)
		case Channels:
			res, err = chanengine.Run(ctx, s.g, proto, opts)
		default:
			res, err = engine.Run(ctx, s.g, proto, opts)
		}
		res.Engine = s.kind.String()
	}
	res.Model = s.mdl.Spec.String()
	res.Phases.Build = build
	res.Phases.Run = time.Since(start)
	if res.Outcome == engine.OutcomeNone && res.Terminated {
		res.Outcome = engine.OutcomeTerminated
	}
	if err == nil && s.analyses != nil {
		analyzeStart := time.Now()
		metrics, ferr := s.analyses.Finish(res)
		if ferr != nil {
			return res, fmt.Errorf("sim: %w", ferr)
		}
		res.Metrics = metrics
		res.Phases.Analyze = time.Since(analyzeStart)
	}
	res.WallTime = build + time.Since(start)
	return res, err
}

// RunFrom executes one run flooding from the given origin set, rebuilding
// the session's registered protocol for those origins while reusing the
// session's engines, arenas, and attached analyses — the hook a serving
// layer's session pool uses to answer requests with per-request origins
// from one long-lived pooled Session (see internal/service). An empty
// origin set means node 0. Like RunBatch it needs a registry protocol; the
// session's configured origins are untouched, so Run keeps its meaning.
func (s *Session) RunFrom(ctx context.Context, origins []graph.NodeID) (engine.Result, error) {
	if s.proto != nil {
		return engine.Result{}, errors.New("sim: RunFrom needs a registry protocol (use WithProtocol, not WithProtocolInstance)")
	}
	if len(origins) == 0 {
		origins = []graph.NodeID{0}
	}
	buildStart := time.Now()
	proto, err := NewProtocol(s.protoName, s.spec(origins))
	if err != nil {
		return engine.Result{}, err
	}
	return s.runProto(ctx, proto, origins, time.Since(buildStart))
}

// RunBatch executes one run per source, each a fresh instance of the
// session's registered protocol flooding from that single origin. On the
// Fast and Parallel engines all runs share the session's arenas, so
// sweep-style workloads (one run per source over a big graph) stay
// allocation-free after the first run. The batch stops at the first error;
// results for completed runs are returned alongside it.
func (s *Session) RunBatch(ctx context.Context, sources []graph.NodeID) ([]engine.Result, error) {
	if s.proto != nil {
		return nil, errors.New("sim: RunBatch needs a registry protocol (use WithProtocol, not WithProtocolInstance)")
	}
	results := make([]engine.Result, 0, len(sources))
	for _, src := range sources {
		buildStart := time.Now()
		proto, err := NewProtocol(s.protoName, s.spec([]graph.NodeID{src}))
		if err != nil {
			return results, err
		}
		res, err := s.runProto(ctx, proto, []graph.NodeID{src}, time.Since(buildStart))
		if err != nil {
			return results, fmt.Errorf("sim: batch source %d: %w", src, err)
		}
		results = append(results, res)
	}
	return results, nil
}
