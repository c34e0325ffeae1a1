package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/sim"
)

// This file is the HTTP surface: request decode, admission, and response
// shaping. The execution discipline itself (timeouts, panic isolation,
// pooling) lives in executeRun; the fairness machinery in queue.go and
// tenant.go. Admission order is deliberate: decode and validate first (a
// malformed request consumes no quota), then the tenant's token bucket and
// in-flight cap, then a dispatcher slot (429 with Retry-After when the
// bounded queue is full).

// decodeBody decodes a JSON request body strictly (unknown fields are
// errors, bodies bounded by MaxBodyBytes).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeError shapes one pre-stream failure as a status + JSON body.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, err error) {
	resp := ErrorResponse{Error: err.Error()}
	if status == http.StatusGatewayTimeout {
		resp.Outcome = "timeout"
	}
	if retryAfter > 0 {
		// Retry-After is whole seconds; round up so "wait 200ms" does not
		// become "retry immediately".
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		resp.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, status, resp)
}

// admit runs the full admission pipeline for one request: drain check,
// tenant quota, dispatcher slot. On success the returned release frees
// both; on failure the response has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), admitted bool) {
	if s.Draining() {
		s.metrics.rejections.With("draining").Inc()
		writeError(w, http.StatusServiceUnavailable, 0, ErrDraining)
		return nil, false
	}
	tenant := s.tenantOf(r)
	tenantRelease, retryAfter, err := s.limiter.admit(tenant)
	if err != nil {
		switch {
		case errors.Is(err, ErrRateLimited):
			s.metrics.rejections.With("rate_limited").Inc()
			writeError(w, http.StatusTooManyRequests, max(retryAfter, time.Second), err)
		case errors.Is(err, ErrTooManyInFlight):
			s.metrics.rejections.With("in_flight_cap").Inc()
			writeError(w, http.StatusTooManyRequests, time.Second, err)
		default:
			s.metrics.rejections.With("limiter_error").Inc()
			writeError(w, http.StatusInternalServerError, 0, err)
		}
		return nil, false
	}
	waitStart := time.Now()
	slotRelease, err := s.disp.acquire(r.Context(), tenant)
	s.metrics.queueWait.ObserveSince(waitStart)
	if err != nil {
		tenantRelease()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.metrics.rejections.With("queue_full").Inc()
			writeError(w, http.StatusTooManyRequests, time.Second, err)
		case errors.Is(err, ErrDraining):
			s.metrics.rejections.With("draining").Inc()
			writeError(w, http.StatusServiceUnavailable, 0, err)
		default: // client hung up while queued
			s.metrics.rejections.With("client_gone").Inc()
			writeError(w, 499, 0, err)
		}
		return nil, false
	}
	return func() { slotRelease(); tenantRelease() }, true
}

// handleRun is POST /v1/run: one spec-addressed simulation, streamed
// (NDJSON/SSE round events then a result event) or unary ("stream":false).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, 0, fmt.Errorf("decoding request: %w", err))
		return
	}
	nr, err := s.normalizeRun(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	if !nr.stream {
		s.runUnary(w, r, nr)
		return
	}
	s.runStreaming(w, r, nr)
}

// runUnary executes the run and answers with one JSON document: 200 with
// the RunResult, 504 on watchdog timeout, 500 on panic or run error.
func (s *Server) runUnary(w http.ResponseWriter, r *http.Request, nr *runSpec) {
	res, g, timedOut, err := s.executeRun(r.Context(), nr, nil)
	switch {
	case timedOut:
		writeError(w, http.StatusGatewayTimeout, 0, fmt.Errorf("run exceeded its %s timeout", nr.timeout))
	case err != nil:
		writeError(w, http.StatusInternalServerError, 0, err)
	default:
		writeJSON(w, http.StatusOK, wireResult(g, nr, res))
	}
}

// runStreaming executes the run streaming per-round events; the terminal
// event is "result" or "error". Once the stream has started the status is
// already 200, so failures surface in-band. A client disconnect is
// observed as a failed event write, which aborts the run via the
// observer's error return (engines stop the run when an observer errors).
func (s *Server) runStreaming(w http.ResponseWriter, r *http.Request, nr *runSpec) {
	ew := newEventWriter(w, streamFormat(r))
	ew.start()
	// Round events need only the round's message count, so the observer is
	// frontier-level: it never makes the bitset engine build Send records.
	obs := engine.FrontierFunc(func(f engine.Frontier) (bool, error) {
		if f.Round%nr.roundEvery != 0 {
			return false, nil
		}
		if err := ew.write(&RunEvent{Event: "round", Round: f.Round, Messages: f.Messages}); err != nil {
			return false, fmt.Errorf("client disconnected: %w", err)
		}
		return false, nil
	})
	res, g, timedOut, err := s.executeRun(r.Context(), nr, obs)
	switch {
	case timedOut:
		ew.write(&RunEvent{Event: "error", Error: fmt.Sprintf("run exceeded its %s timeout", nr.timeout), Outcome: "timeout"})
	case err != nil:
		ew.write(&RunEvent{Event: "error", Error: err.Error()})
	default:
		ew.write(&RunEvent{Event: "result", Result: wireResult(g, nr, res)})
	}
}

// SweepRequest is the body of POST /v1/sweep: a scenario matrix expanded
// to the cross-product of its axes and executed as one admitted unit. The
// response streams one NDJSON/SSE row per cell (a scenario result object)
// and a final {"event":"done"} summary.
type SweepRequest struct {
	// Graphs..Seeds are the matrix axes (scenario.Matrix semantics:
	// zero-valued axes default to the identity; Graphs is mandatory).
	Graphs    []string `json:"graphs"`
	Protocols []string `json:"protocols,omitempty"`
	Engines   []string `json:"engines,omitempty"`
	Models    []string `json:"models,omitempty"`
	// Analyses attach to every cell (a measurement set, not an axis).
	Analyses []string `json:"analyses,omitempty"`
	Seeds    []int64  `json:"seeds,omitempty"`
	// Reps repeats every cell; min 1.
	Reps int `json:"reps,omitempty"`
	// MaxRounds bounds every run; 0 means the engine default.
	MaxRounds int `json:"maxRounds,omitempty"`
	// TimeoutMs bounds each cell's run (scenario watchdog); 0 means the
	// server default, capped at the server maximum.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// SweepEvent is one line of a sweep response.
type SweepEvent struct {
	Event string `json:"event"`
	// Row is one cell's result (Event "row").
	Row *scenario.Result `json:"row,omitempty"`
	// Cells and Failed summarise the sweep (Event "done").
	Cells  int `json:"cells,omitempty"`
	Failed int `json:"failed,omitempty"`
	// Error describes a failed sweep (Event "error").
	Error string `json:"error,omitempty"`
}

// handleSweep is POST /v1/sweep. One sweep holds one dispatcher slot for
// its whole duration (its internal scenario workers are bounded
// separately by SweepWorkers), so a tenant cannot multiply its concurrency
// by sweeping.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, 0, fmt.Errorf("decoding request: %w", err))
		return
	}
	m := scenario.Matrix{
		Graphs:    req.Graphs,
		Protocols: req.Protocols,
		Engines:   req.Engines,
		Models:    req.Models,
		Analyses:  req.Analyses,
		Seeds:     req.Seeds,
		Reps:      req.Reps,
		MaxRounds: req.MaxRounds,
	}
	specs, err := m.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err)
		return
	}
	for _, gs := range req.Graphs {
		gspec, err := gen.Parse(gs)
		if err != nil {
			writeError(w, http.StatusBadRequest, 0, err)
			return
		}
		if err := checkServableGraph(gspec); err != nil {
			writeError(w, http.StatusBadRequest, 0, err)
			return
		}
	}
	if len(specs) > s.cfg.MaxSweepCells {
		writeError(w, http.StatusBadRequest, 0,
			fmt.Errorf("sweep expands to %d cells, over the %d-cell limit", len(specs), s.cfg.MaxSweepCells))
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	ew := newEventWriter(w, streamFormat(r))
	ew.start()
	sink := &sweepSink{ew: ew}
	runner := &scenario.Runner{
		Workers:    s.cfg.SweepWorkers,
		Sink:       sink,
		RunTimeout: timeout,
		Metrics:    s.metrics.sweepTel,
	}
	// The runner's own panic isolation turns panicking cells into error
	// rows, and the request context cancels the whole sweep when the
	// client hangs up (sink write failures also cancel, via the runner's
	// sink-error propagation).
	results, err := runner.Run(r.Context(), specs)
	failed := 0
	for i := range results {
		if results[i].Err != "" {
			failed++
		}
	}
	if err != nil {
		ew.write(&SweepEvent{Event: "error", Error: err.Error()})
		return
	}
	sink.writeDone(len(results), failed)
}

// sweepSink streams scenario rows to the response as they complete. The
// runner serialises Write calls on the calling goroutine, so no locking.
type sweepSink struct {
	ew *eventWriter
}

// Write implements scenario.Sink; a failed write (client gone) errors the
// sweep, which the runner surfaces and the handler turns into an abort.
func (ss *sweepSink) Write(res scenario.Result) error {
	return ss.ew.write(&SweepEvent{Event: "row", Row: &res})
}

func (ss *sweepSink) writeDone(cells, failed int) {
	ss.ew.write(&SweepEvent{Event: "done", Cells: cells, Failed: failed})
}

// RegistryResponse is GET /v1/registry: every registered value of the five
// spec axes, with parameter declarations — the service's self-description.
type RegistryResponse struct {
	Protocols []string           `json:"protocols"`
	Engines   []string           `json:"engines"`
	Graphs    []RegistryFamily   `json:"graphs"`
	Models    []RegistryModel    `json:"models"`
	Analyses  []RegistryAnalysis `json:"analyses"`
}

// RegistryParam describes one declared parameter.
type RegistryParam struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default string `json:"default"`
	Doc     string `json:"doc,omitempty"`
}

// RegistryFamily describes one graph family.
type RegistryFamily struct {
	Name   string          `json:"name"`
	Doc    string          `json:"doc,omitempty"`
	Random bool            `json:"random,omitempty"`
	Params []RegistryParam `json:"params,omitempty"`
}

// RegistryModel describes one execution-model family ("sync" has kind
// "sync" and no family).
type RegistryModel struct {
	Kind   string          `json:"kind"`
	Family string          `json:"family,omitempty"`
	Doc    string          `json:"doc,omitempty"`
	Random bool            `json:"random,omitempty"`
	Params []RegistryParam `json:"params,omitempty"`
}

// RegistryAnalysis describes one analysis family and the metric columns it
// emits.
type RegistryAnalysis struct {
	Name    string          `json:"name"`
	Doc     string          `json:"doc,omitempty"`
	Metrics []string        `json:"metrics,omitempty"`
	Params  []RegistryParam `json:"params,omitempty"`
}

// handleRegistry is GET /v1/registry.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	resp := RegistryResponse{
		Protocols: sim.Protocols(),
		Engines:   sim.EngineNames(),
	}
	for _, name := range gen.Families() {
		fam, _ := gen.Lookup(name)
		if fam.Local {
			continue // not servable over the wire (see checkServableGraph)
		}
		resp.Graphs = append(resp.Graphs, RegistryFamily{
			Name: name, Doc: fam.Doc, Random: fam.Random, Params: wireParams(fam.Params),
		})
	}
	resp.Models = append(resp.Models, RegistryModel{Kind: string(model.KindSync), Doc: "the paper's synchronous model (identity model, no parameters)"})
	for _, kind := range []model.Kind{model.KindAdversary, model.KindSchedule} {
		for _, name := range model.Families(kind) {
			info, _ := model.Lookup(kind, name)
			resp.Models = append(resp.Models, RegistryModel{
				Kind: string(kind), Family: name, Doc: info.Doc, Random: info.Random, Params: wireParams(info.Params),
			})
		}
	}
	for _, name := range analysis.Families() {
		fam, _ := analysis.Lookup(name)
		resp.Analyses = append(resp.Analyses, RegistryAnalysis{
			Name: name, Doc: fam.Doc, Metrics: fam.Metrics, Params: wireParams(fam.Params),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireParams converts declared parameters to the wire shape (the Param
// type is shared by all registries via internal/specgrammar).
func wireParams(params []gen.Param) []RegistryParam {
	out := make([]RegistryParam, len(params))
	for i, p := range params {
		out[i] = RegistryParam{Name: p.Name, Kind: p.Kind.String(), Default: p.Default, Doc: p.Doc}
	}
	return out
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	// UptimeSeconds is whole seconds since the server was built.
	UptimeSeconds int64 `json:"uptimeSeconds"`
	// Version is the main module's build version ("unknown" for plain
	// source builds without module metadata).
	Version string `json:"version"`
	Stats   Stats  `json:"stats"`
}

// handleHealthz is GET /healthz: 200 {"status":"ok"} while serving, 503
// {"status":"draining"} once Drain has begun — the readiness signal a load
// balancer needs to stop routing before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.started) / time.Second),
		Version:       obs.Version(),
		Stats:         s.Stats(),
	}
	if s.Draining() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
