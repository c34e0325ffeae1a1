// Package scenario is the declarative suite layer over the sim façade: a
// Spec names one run as data (graph spec × protocol × engine × model ×
// origins × seed, plus the attached analysis set), a Matrix expands the
// cross-product of those axes, and a Runner executes a suite over a bounded
// worker pool, streaming results to pluggable sinks (JSONL, CSV, in-memory
// aggregation). Analyses (internal/analysis specs) stream per-round metrics
// into every run; their merged "<family>.<metric>" columns flow through all
// sinks and are summarised per cell by Aggregate.
//
// Where the sim package answers "run this protocol on this graph", scenario
// answers "sweep every protocol over every family at every seed and tell me
// what happened" — the quantified-over-graph-families shape of the paper's
// termination claims, and the shape of any serving benchmark harness:
//
//	specs, _ := scenario.Matrix{
//	        Graphs:    []string{"grid:rows=8,cols=8", "cycle:n=65", "prefattach:n=64,m=2"},
//	        Protocols: []string{"amnesiac", "classic"},
//	        Engines:   []string{"sequential", "fast"},
//	        Seeds:     []int64{1, 2},
//	}.Expand()
//	agg := scenario.NewAggregate()
//	results, _ := (&scenario.Runner{Workers: 8, Sink: agg}).Run(ctx, specs)
//
// Every run is deterministic given its Spec, so the same suite executed
// with any worker count produces the same results up to ordering (and wall
// time); the Runner returns them sorted by Spec ID.
package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/sim"
)

// Spec fully determines one simulation run: it is pure data, safe to
// marshal, log, and replay. The graph is a gen spec string, the protocol a
// sim registry name, the model an internal/model spec string, and the
// engine the one that runs it: a sim.ParseEngine spelling under the sync
// model, the model engine's name ("async", "dynamic") under any other.
type Spec struct {
	// Graph is the graph spec, e.g. "grid:rows=64,cols=64" (see
	// internal/graph/gen). Random families consume Seed.
	Graph string `json:"graph"`
	// Protocol is the registered protocol name (see sim.Protocols).
	Protocol string `json:"protocol"`
	// Engine names the engine that runs the spec: under the sync model
	// one of sim.EngineNames, under any other the model engine's name,
	// model.Spec.EngineName ("async" or "dynamic").
	Engine string `json:"engine"`
	// Model is the execution-model spec ("sync", "adversary:collision",
	// "schedule:blink:period=2", ...; see internal/model). Empty means
	// sync. Non-sync models run amnesiac flooding on the one model engine
	// (see sim.WithModel). Random model families consume Seed.
	Model string `json:"model,omitempty"`
	// Origins is the origin node set; empty means node 0.
	Origins []graph.NodeID `json:"origins,omitempty"`
	// Analyses lists streaming-analysis specs (internal/analysis grammar:
	// "coverage", "quantiles:metric=messages", ...) attached to the run;
	// their merged metrics land in Result.Metrics.
	Analyses []string `json:"analyses,omitempty"`
	// Seed drives graph construction and model randomness.
	Seed int64 `json:"seed"`
	// Rep distinguishes repetitions of an otherwise identical spec.
	Rep int `json:"rep,omitempty"`
	// MaxRounds bounds the run; 0 means the engine default.
	MaxRounds int `json:"maxRounds,omitempty"`
	// Timeout, when positive, overrides the Runner's per-run watchdog for
	// this spec (JSON: nanoseconds). 0 means the Runner's RunTimeout.
	Timeout time.Duration `json:"timeout,omitempty"`
}

// ID renders a stable, human-readable identity for the spec — the sort key
// for order-normalised result comparison. The empty field between rep and
// max once held protocol parameters; it stays, so every ID, journal and
// sort order written before they went still matches.
func (s Spec) ID() string {
	origins := make([]string, len(s.Origins))
	for i, o := range s.Origins {
		origins[i] = strconv.Itoa(int(o))
	}
	mdl := s.Model
	if mdl == "" {
		mdl = string(model.KindSync)
	}
	id := fmt.Sprintf("%s|%s|%s|%s|o=%s|a=%s|seed=%d|rep=%d||max=%d",
		s.Graph, s.Protocol, s.Engine, mdl, strings.Join(origins, ","),
		strings.Join(s.Analyses, "+"), s.Seed, s.Rep, s.MaxRounds)
	// The watchdog override is appended only when set, keeping the common
	// untimed form (and every pre-existing checkpoint) stable.
	if s.Timeout > 0 {
		id += "|to=" + s.Timeout.String()
	}
	return id
}

// Validate checks the spec against the graph, protocol, engine, and model
// registries without running anything.
func (s Spec) Validate() error {
	if _, err := gen.Parse(s.Graph); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := s.engineOptions(); err != nil {
		return err
	}
	for _, a := range s.Analyses {
		if _, err := analysis.Parse(a); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if _, ok := sim.Protocols.Lookup(s.Protocol); !ok {
		return fmt.Errorf("scenario: %w", sim.Protocols.Unknown(s.Protocol))
	}
	return nil
}

// Matrix declares a suite as the cross-product of its axes. Zero-valued
// axes default to the identity: protocols to amnesiac, engines to
// sequential, models to sync, origin sets to {0}, seeds to {1}, reps to 1.
// Graphs is the only mandatory axis.
type Matrix struct {
	// Graphs lists gen spec strings.
	Graphs []string
	// Protocols lists registered protocol names.
	Protocols []string
	// Engines lists synchronous engine names. They run the sync model;
	// every other model runs on its own model engine, so it is expanded
	// once, not once per engine.
	Engines []string
	// Models lists execution-model specs (internal/model grammar). Note
	// that non-sync models run only the amnesiac protocol; cells crossing
	// them with another protocol fail at run time with Result.Err set.
	Models []string
	// OriginSets lists origin sets; each set is one run's origins.
	OriginSets [][]graph.NodeID
	// Analyses lists streaming-analysis specs attached to *every* cell of
	// the matrix (it is a measurement set, not a cross-product axis): each
	// run streams all of them and its Result carries their merged metric
	// columns. Analyses with origin-arity requirements (bipartite,
	// spantree, echo need a single origin) fail per-run with Result.Err on
	// cells that violate them.
	Analyses []string
	// Seeds lists seeds; each seed rebuilds random graphs and reseeds
	// random models.
	Seeds []int64
	// Reps repeats every cell, for timing stability; min 1.
	Reps int
	// MaxRounds bounds every run; 0 means the engine default.
	MaxRounds int
}

// engineOptions returns the sim options that pick the spec's model and
// engine. A sync spec's Engine is parsed as a synchronous engine; a
// non-sync spec runs on the model engine, so its Engine must be that
// engine's name and is not parsed.
func (s Spec) engineOptions() ([]sim.Option, error) {
	mdl := model.SyncSpec()
	var opts []sim.Option
	if s.Model != "" {
		var err error
		if mdl, err = model.Parse(s.Model); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		opts = append(opts, sim.WithModel(s.Model))
	}
	if !mdl.IsSync() {
		if s.Engine != mdl.EngineName() {
			return nil, fmt.Errorf("scenario: model %s runs on the %s engine, not %q", mdl, mdl.EngineName(), s.Engine)
		}
		return opts, nil
	}
	kind, err := sim.ParseEngine(s.Engine)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(opts, sim.WithEngine(kind)), nil
}

// Cells returns len(Expand()) for every matrix Expand accepts, without
// expanding it: the product of the axis lengths, an empty axis counting as
// its one default, except that a non-sync model counts once rather than
// once per engine. The product saturates at math.MaxInt, so a caller can
// bound a matrix's cost before paying for it.
func (m Matrix) Cells() int {
	syncModels, otherModels := 0, 0
	for _, spec := range m.Models {
		if mdl, err := model.Parse(spec); err == nil && !mdl.IsSync() {
			otherModels++
		} else {
			syncModels++
		}
	}
	if len(m.Models) == 0 {
		syncModels = 1
	}
	runs := max(len(m.Engines), 1)*syncModels + otherModels
	cells := 1
	for _, axis := range []int{len(m.Graphs), len(m.Protocols), runs, len(m.OriginSets), len(m.Seeds), m.Reps} {
		axis = max(axis, 1)
		if cells > math.MaxInt/axis {
			return math.MaxInt
		}
		cells *= axis
	}
	return cells
}

// Expand enumerates the cross-product in deterministic order (graphs ×
// protocols × engines × models × origin sets × seeds × reps), validating
// every axis value against its registry up front. A non-sync model runs on
// the model engine whatever the engine axis holds, so it is expanded once,
// in the first engine's place, and labelled with the model engine's name.
// Graph and model specs are canonically ordered (lower-cased, parameters
// in declared order), so two spellings of the same explicit parameter set
// expand to equal Specs; defaults are not expanded, so "gnp" and its fully
// explicit form remain distinct cells.
func (m Matrix) Expand() ([]Spec, error) {
	if len(m.Graphs) == 0 {
		return nil, fmt.Errorf("scenario: matrix has no graphs")
	}
	graphs := make([]string, len(m.Graphs))
	for i, g := range m.Graphs {
		parsed, err := gen.Parse(g)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		graphs[i] = parsed.String()
	}
	protocols := make([]string, 0, len(m.Protocols))
	for _, p := range m.Protocols {
		p = strings.ToLower(strings.TrimSpace(p))
		if _, ok := sim.Protocols.Lookup(p); !ok {
			return nil, fmt.Errorf("scenario: %w", sim.Protocols.Unknown(p))
		}
		protocols = append(protocols, p)
	}
	if len(protocols) == 0 {
		protocols = []string{"amnesiac"}
	}
	engines := make([]string, len(m.Engines))
	for i, e := range m.Engines {
		kind, err := sim.ParseEngine(e)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		// Canonical spelling, so alias spellings ("seq") expand to the
		// same Spec (and hence group/ID) as their full names.
		engines[i] = kind.String()
	}
	if len(engines) == 0 {
		engines = []string{sim.Sequential.String()}
	}
	models := make([]model.Spec, len(m.Models))
	for i, spec := range m.Models {
		parsed, err := model.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		models[i] = parsed
	}
	if len(models) == 0 {
		models = []model.Spec{model.SyncSpec()}
	}
	// runs pairs each engine label with each model that engine runs.
	type run struct{ engine, model string }
	var runs []run
	for i, eng := range engines {
		for _, mdl := range models {
			if mdl.IsSync() {
				runs = append(runs, run{eng, mdl.String()})
			} else if i == 0 {
				runs = append(runs, run{mdl.EngineName(), mdl.String()})
			}
		}
	}
	analyses := make([]string, len(m.Analyses))
	for i, spec := range m.Analyses {
		parsed, err := analysis.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		analyses[i] = parsed.String()
	}
	originSets := m.OriginSets
	if len(originSets) == 0 {
		originSets = [][]graph.NodeID{{0}}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	reps := m.Reps
	if reps < 1 {
		reps = 1
	}
	specs := make([]Spec, 0, len(graphs)*len(protocols)*len(runs)*len(originSets)*len(seeds)*reps)
	for _, g := range graphs {
		for _, proto := range protocols {
			for _, r := range runs {
				for _, origins := range originSets {
					for _, seed := range seeds {
						// Every axis value was validated against its
						// registry above, so the cells need no per-spec
						// re-validation.
						for rep := 0; rep < reps; rep++ {
							specs = append(specs, Spec{
								Graph:     g,
								Protocol:  proto,
								Engine:    r.engine,
								Model:     r.model,
								Origins:   append([]graph.NodeID(nil), origins...),
								Analyses:  slices.Clone(analyses),
								Seed:      seed,
								Rep:       rep,
								MaxRounds: m.MaxRounds,
							})
						}
					}
				}
			}
		}
	}
	return specs, nil
}
