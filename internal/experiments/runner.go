package experiments

import (
	"context"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/sim"
)

// flood executes amnesiac flooding from the origins on the configured engine
// through the sim façade, with the coverage and termination analyses
// attached, and returns the result (termination's verdict on the paper's
// law among its metrics, for theory.CheckLaw) and that run's coverage
// analyzer. It is the single amnesiac run path of the whole experiment
// suite, so every table's numbers are attributable to cfg.Engine. Only the
// tables that print or compare edges (E1–E3, E11, E18) ask for a trace.
func flood(cfg Config, g *graph.Graph, traced bool, origins ...graph.NodeID) (engine.Result, *analysis.Coverage, error) {
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithEngine(cfg.EngineKind()),
		sim.WithOrigins(origins...),
		sim.WithTrace(traced),
		sim.WithAnalysis("coverage", "termination"),
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

// runModel is flood's counterpart on the model axis, the one run path of
// E7, E12, E14 and E15: amnesiac flooding on g from one origin under an
// execution-model spec ("adversary:...", or "schedule:..." for dynamic
// networks, message loss and crashes), with the coverage analysis
// attached. Random models draw from seed; maxRounds 0 means the model
// engines' default.
func runModel(g *graph.Graph, modelSpec string, seed int64, maxRounds int, traced bool, origin graph.NodeID) (engine.Result, *analysis.Coverage, error) {
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithModel(modelSpec),
		sim.WithOrigins(origin),
		sim.WithSeed(seed),
		sim.WithMaxRounds(maxRounds),
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
