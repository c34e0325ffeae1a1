package experiments

import (
	"context"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/sim"
)

// flood executes amnesiac flooding from the origins on the configured engine
// through the sim façade, with the coverage analysis attached, and returns
// the result and that run's coverage analyzer. It is the single amnesiac run
// path of the whole experiment suite, so every table's numbers are
// attributable to cfg.Engine. Only the tables that print or compare edges
// (E1–E3, E11, E18) ask for a trace.
func flood(cfg Config, g *graph.Graph, traced bool, origins ...graph.NodeID) (engine.Result, *analysis.Coverage, error) {
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithEngine(cfg.EngineKind()),
		sim.WithOrigins(origins...),
		sim.WithTrace(traced),
		sim.WithAnalysis("coverage"),
	)
	if err != nil {
		return engine.Result{}, nil, err
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		return engine.Result{}, nil, err
	}
	cov, _ := sess.Coverage()
	return res, cov, nil
}
