package analysis

import (
	"fmt"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/termdetect"
)

// Echo reports the Dijkstra–Scholten termination-detection baseline for the
// run's (graph, origin) pair: what classic flooding plus acknowledgement
// echoes would cost to let the origin *know* the flood is over — the
// contrast the paper's introduction draws against amnesiac flooding's
// silent termination. Unlike the other families it is not computed from the
// observed round stream (the echo protocol is a different algorithm); it
// runs termdetect.Run once per Finish and pairs its numbers with the
// observed run's, so suites get both sides of the trade-off in one row.
type Echo struct {
	g      *graph.Graph
	source graph.NodeID
}

var (
	_ Analyzer                = (*Echo)(nil)
	_ engine.FrontierObserver = (*Echo)(nil)
)

func init() {
	Register("echo", Family{
		Doc:     "Dijkstra–Scholten detection baseline (classic flooding + acks) for the same graph and origin",
		Metrics: []string{"detectionRound", "floodRounds", "floodMessages", "ackMessages", "totalMessages", "covered", "messageOverhead"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			return &Echo{g: ctx.Graph}, nil
		},
	})
}

// Family implements Analyzer.
func (e *Echo) Family() string { return "echo" }

// Start implements Analyzer.
func (e *Echo) Start(origins []graph.NodeID) error {
	src, err := singleOrigin("echo", origins)
	if err != nil {
		return err
	}
	e.source = src
	return nil
}

// ObserveRound implements engine.RoundObserver; the baseline does not
// consume the observed stream and never requests a stop.
func (e *Echo) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return false, nil
}

// FrontierOnly implements engine.FrontierObserver: the baseline reads
// nothing from the stream, so it never makes an engine build Send records.
func (e *Echo) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver, as a no-op like
// ObserveRound.
func (e *Echo) ObserveFrontier(f engine.Frontier) (bool, error) {
	return false, nil
}

// Finish implements Analyzer, running the detection baseline.
// messageOverhead is the baseline's total traffic relative to the observed
// run's (2x the classic flood, compared against whatever actually ran).
func (e *Echo) Finish(res engine.Result) (Metrics, error) {
	det, err := termdetect.Run(e.g, e.source)
	if err != nil {
		return nil, fmt.Errorf("echo baseline: %w", err)
	}
	m := Metrics{
		"detectionRound": float64(det.DetectionRound),
		"floodRounds":    float64(det.FloodRounds),
		"floodMessages":  float64(det.FloodMessages),
		"ackMessages":    float64(det.AckMessages),
		"totalMessages":  float64(det.TotalMessages()),
		"covered":        float64(det.CoverageCount()),
	}
	if res.TotalMessages > 0 {
		m["messageOverhead"] = float64(det.TotalMessages()) / float64(res.TotalMessages)
	}
	return m, nil
}
