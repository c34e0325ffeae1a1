package service

import (
	"fmt"
	"strings"
	"time"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/sim"
)

// This file is the service's wire format: spec-addressed requests whose
// axis fields are exactly the canonical spec strings the five registries
// round-trip (internal/specgrammar is the one registry behind them), and the
// NDJSON/SSE event stream a run answers with.

// RunRequest is the body of POST /v1/run. Every axis field is a spec string
// in its registry's grammar; omitted axes take the façade defaults
// (protocol amnesiac, engine fast, model sync, origin node 0).
type RunRequest struct {
	// Graph is the graph spec, e.g. "grid:rows=64,cols=64" (mandatory).
	Graph string `json:"graph"`
	// Protocol is a registered protocol name; default "amnesiac".
	Protocol string `json:"protocol,omitempty"`
	// Engine is an engine name (sim.EngineNames); default "fast".
	Engine string `json:"engine,omitempty"`
	// Model is an execution-model spec; default "sync".
	Model string `json:"model,omitempty"`
	// Analyses lists streaming-analysis specs attached to the run.
	Analyses []string `json:"analyses,omitempty"`
	// Origins is the origin node set; empty means node 0.
	Origins []int `json:"origins,omitempty"`
	// Seed drives graph construction and model randomness.
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds bounds the run; 0 means the engine default.
	MaxRounds int `json:"maxRounds,omitempty"`
	// TimeoutMs overrides the server's per-run timeout, capped at the
	// server's maximum; 0 means the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Stream selects the response shape: streamed events (default) or a
	// single JSON result document (false).
	Stream *bool `json:"stream,omitempty"`
	// RoundEvery thins the round event stream to every k-th round
	// (default 1 = every round). The result event is always emitted.
	RoundEvery int `json:"roundEvery,omitempty"`
}

// RunEvent is one line of a streamed run response (NDJSON) or one SSE data
// payload. Event is "round" while the run progresses, then exactly one of
// "result" or "error" terminates the stream.
type RunEvent struct {
	Event string `json:"event"`
	// Round/Messages describe one observed round (Event "round").
	Round    int `json:"round,omitempty"`
	Messages int `json:"messages,omitempty"`
	// Result is the final run outcome (Event "result").
	Result *RunResult `json:"result,omitempty"`
	// Error and Outcome describe a failed run (Event "error"); Outcome is
	// "timeout" when the per-run watchdog expired.
	Error   string `json:"error,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// RunResult is the final row of a run: the engine.Result fields a caller
// can compare against a direct sim run of the same specs, plus the exact
// built-graph identity.
type RunResult struct {
	// Graph is the fully explicit canonical spec of the built instance.
	Graph string `json:"graph"`
	// N and M are the built graph's node and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Protocol, Engine, and Model attribute the run (canonical names).
	Protocol string `json:"protocol"`
	Engine   string `json:"engine"`
	Model    string `json:"model"`
	// Outcome, Rounds, TotalMessages, Lost, Terminated, Stopped, and the
	// certificate fields mirror engine.Result.
	Outcome       string `json:"outcome,omitempty"`
	Rounds        int    `json:"rounds"`
	TotalMessages int    `json:"totalMessages"`
	Lost          int    `json:"lost,omitempty"`
	Terminated    bool   `json:"terminated"`
	Stopped       bool   `json:"stopped,omitempty"`
	CycleStart    int    `json:"cycleStart,omitempty"`
	CycleLength   int    `json:"cycleLength,omitempty"`
	// Metrics holds the merged streaming-analysis metrics of the run
	// ("<family>.<metric>" keys), present when analyses were attached.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// WallMicros is the server-side wall-clock run time in microseconds
	// (nondeterministic, excluded from any equality contract).
	WallMicros int64 `json:"wallMicros"`
	// Phases splits WallMicros into build/run/analyze (engine.PhaseTimings
	// in microseconds). Like WallMicros it is nondeterministic bookkeeping,
	// excluded from any equality contract.
	Phases *RunPhases `json:"phases,omitempty"`
}

// RunPhases is the wire shape of one run's phase split, in microseconds.
type RunPhases struct {
	BuildMicros   int64 `json:"buildMicros,omitempty"`
	RunMicros     int64 `json:"runMicros,omitempty"`
	AnalyzeMicros int64 `json:"analyzeMicros,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Outcome is "timeout" on 504s, empty otherwise.
	Outcome string `json:"outcome,omitempty"`
	// RetryAfterMs accompanies 429s: how long the client should wait
	// before retrying (also sent as a Retry-After header, in seconds).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// runSpec is a normalised, validated run request: every axis canonicalised
// against its registry, the timeout resolved against the server bounds.
// Two requests spelling the same run differently normalise to the same
// poolKey, so they share a pooled session.
type runSpec struct {
	graph      string // canonical gen spec
	protocol   string // lower-case registered name
	engineName string // canonical engine name
	kind       sim.EngineKind
	model      string   // canonical model spec; "" for sync
	analyses   []string // canonical analysis specs
	origins    []graph.NodeID
	seed       int64
	maxRounds  int
	timeout    time.Duration
	stream     bool
	roundEvery int
}

// normalizeRun validates a RunRequest against the registries and resolves
// defaults. Validation happens before any quota is consumed, so malformed
// requests cost nothing but the parse.
func (s *Server) normalizeRun(req *RunRequest) (*runSpec, error) {
	if strings.TrimSpace(req.Graph) == "" {
		return nil, fmt.Errorf("missing graph spec")
	}
	gspec, err := gen.Parse(req.Graph)
	if err != nil {
		return nil, err
	}
	if err := checkServableGraph(gspec); err != nil {
		return nil, err
	}
	nr := &runSpec{
		graph:      gspec.String(),
		protocol:   strings.ToLower(strings.TrimSpace(req.Protocol)),
		seed:       req.Seed,
		maxRounds:  req.MaxRounds,
		stream:     req.Stream == nil || *req.Stream,
		roundEvery: req.RoundEvery,
	}
	if nr.protocol == "" {
		nr.protocol = "amnesiac"
	}
	if _, ok := sim.Protocols.Lookup(nr.protocol); !ok {
		return nil, sim.Protocols.Unknown(req.Protocol)
	}
	engName := req.Engine
	if strings.TrimSpace(engName) == "" {
		engName = "fast"
	}
	nr.kind, err = sim.ParseEngine(engName)
	if err != nil {
		return nil, err
	}
	nr.engineName = nr.kind.String()
	if strings.TrimSpace(req.Model) != "" {
		mspec, err := model.Parse(req.Model)
		if err != nil {
			return nil, err
		}
		if !mspec.IsSync() {
			nr.model = mspec.String()
			if nr.protocol != "amnesiac" {
				return nil, fmt.Errorf("model %s runs only the amnesiac protocol (got %q)", nr.model, nr.protocol)
			}
		}
	}
	for _, a := range req.Analyses {
		aspec, err := analysis.Parse(a)
		if err != nil {
			return nil, err
		}
		nr.analyses = append(nr.analyses, aspec.String())
	}
	if nr.maxRounds < 0 {
		return nil, fmt.Errorf("negative maxRounds %d", nr.maxRounds)
	}
	if nr.roundEvery < 1 {
		nr.roundEvery = 1
	}
	nr.origins = make([]graph.NodeID, len(req.Origins))
	for i, o := range req.Origins {
		if o < 0 {
			return nil, fmt.Errorf("negative origin %d", o)
		}
		nr.origins[i] = graph.NodeID(o)
	}
	if len(nr.origins) == 0 {
		nr.origins = []graph.NodeID{0}
	}
	nr.timeout = s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		nr.timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (nr.timeout <= 0 || nr.timeout > s.cfg.MaxTimeout) {
		nr.timeout = s.cfg.MaxTimeout
	}
	return nr, nil
}

// checkServableGraph rejects graph specs the service must not resolve on a
// remote caller's behalf: Local families (edgefile) open server-side paths
// named by the spec, which would hand every tenant a file-existence oracle
// and an arbitrary-file ingestion channel.
func checkServableGraph(gspec gen.Spec) error {
	if fam, ok := gen.Families.Lookup(gspec.Family); ok && fam.Local {
		return fmt.Errorf("graph family %q reads local server files and cannot be requested over the wire", gspec.Family)
	}
	return nil
}

// poolKey identifies the pooled-session configuration a run needs:
// everything but the per-request origins, timeout, and streaming shape
// (origins are rebound per run via sim.Session.RunFrom).
func (nr *runSpec) poolKey() string {
	var b strings.Builder
	b.WriteString(nr.graph)
	b.WriteByte('|')
	b.WriteString(nr.protocol)
	b.WriteByte('|')
	b.WriteString(nr.engineName)
	b.WriteByte('|')
	if nr.model == "" {
		b.WriteString("sync")
	} else {
		b.WriteString(nr.model)
	}
	b.WriteByte('|')
	b.WriteString(strings.Join(nr.analyses, "+"))
	fmt.Fprintf(&b, "|seed=%d|max=%d", nr.seed, nr.maxRounds)
	return b.String()
}

// wireResult flattens an engine.Result plus the built graph's identity into
// the final event row.
func wireResult(g graphInfo, nr *runSpec, res engine.Result) *RunResult {
	out := &RunResult{
		Graph:         g.name,
		N:             g.n,
		M:             g.m,
		Protocol:      nr.protocol,
		Engine:        res.Engine,
		Model:         res.Model,
		Outcome:       res.Outcome.String(),
		Rounds:        res.Rounds,
		TotalMessages: res.TotalMessages,
		Lost:          res.Lost,
		Terminated:    res.Terminated,
		Stopped:       res.Stopped,
		Metrics:       res.Metrics,
		WallMicros:    res.WallTime.Microseconds(),
	}
	if res.Certificate != nil {
		out.CycleStart, out.CycleLength = res.Certificate.Start, res.Certificate.Length
	}
	if res.Phases != (engine.PhaseTimings{}) {
		out.Phases = &RunPhases{
			BuildMicros:   res.Phases.Build.Microseconds(),
			RunMicros:     res.Phases.Run.Microseconds(),
			AnalyzeMicros: res.Phases.Analyze.Microseconds(),
		}
	}
	return out
}
