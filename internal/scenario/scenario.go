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
// sim registry name, the engine a sim.ParseEngine spelling, the model an
// internal/model spec string.
type Spec struct {
	// Graph is the graph spec, e.g. "grid:rows=64,cols=64" (see
	// internal/graph/gen). Random families consume Seed.
	Graph string `json:"graph"`
	// Protocol is the registered protocol name (see sim.Protocols).
	Protocol string `json:"protocol"`
	// Engine is the engine name (see sim.EngineNames).
	Engine string `json:"engine"`
	// Model is the execution-model spec ("sync", "adversary:collision",
	// "schedule:blink:period=2", ...; see internal/model). Empty means
	// sync. Non-sync models run amnesiac flooding on their own substrate;
	// the Engine axis then does not apply (see sim.WithModel). Random
	// model families consume Seed.
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
	if _, err := sim.ParseEngine(s.Engine); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Model != "" {
		if _, err := model.Parse(s.Model); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	for _, a := range s.Analyses {
		if _, err := analysis.Parse(a); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	proto := strings.ToLower(strings.TrimSpace(s.Protocol))
	for _, name := range sim.Protocols() {
		if name == proto {
			return nil
		}
	}
	return fmt.Errorf("scenario: %w %q (registered: %s)",
		sim.ErrUnknownProtocol, s.Protocol, strings.Join(sim.Protocols(), ", "))
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
	// Engines lists engine names.
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

// Cells returns len(Expand()) for every matrix Expand accepts, without
// expanding it: the product of the axis lengths, an empty axis counting as
// its one default. The product saturates at math.MaxInt, so a caller can
// bound a matrix's cost before paying for it.
func (m Matrix) Cells() int {
	cells := 1
	for _, axis := range []int{len(m.Graphs), len(m.Protocols), len(m.Engines), len(m.Models), len(m.OriginSets), len(m.Seeds), m.Reps} {
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
// every axis value against its registry up front. Graph and model specs
// are canonically ordered (lower-cased, parameters in declared order), so
// two spellings of the same explicit parameter set expand to equal Specs;
// defaults are not expanded, so "gnp" and its fully explicit form remain
// distinct cells.
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
	registered := map[string]bool{}
	for _, name := range sim.Protocols() {
		registered[name] = true
	}
	for _, p := range m.Protocols {
		p = strings.ToLower(strings.TrimSpace(p))
		if !registered[p] {
			return nil, fmt.Errorf("scenario: %w %q (registered: %s)",
				sim.ErrUnknownProtocol, p, strings.Join(sim.Protocols(), ", "))
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
	models := make([]string, len(m.Models))
	for i, spec := range m.Models {
		parsed, err := model.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		models[i] = parsed.String()
	}
	if len(models) == 0 {
		models = []string{string(model.KindSync)}
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
	specs := make([]Spec, 0, len(graphs)*len(protocols)*len(engines)*len(models)*len(originSets)*len(seeds)*reps)
	for _, g := range graphs {
		for _, proto := range protocols {
			for _, eng := range engines {
				for _, mdl := range models {
					for _, origins := range originSets {
						for _, seed := range seeds {
							// Every axis value was validated against its
							// registry above, so the cells need no
							// per-spec re-validation.
							for rep := 0; rep < reps; rep++ {
								specs = append(specs, Spec{
									Graph:     g,
									Protocol:  proto,
									Engine:    eng,
									Model:     mdl,
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
	}
	return specs, nil
}
