package analysis

import (
	"fmt"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Quantiles promotes one base result quantity to a named metric column, so
// the scenario layer can fold a stats.Summary (mean / stddev / quantiles)
// over it across a whole suite — the registry form of the hand-rolled
// stats.Summarize loops the experiment sweeps used to carry. The per-run
// work is trivial by design; the value of the family is the column it adds
// to every sink and the per-cell summaries scenario.Aggregate computes over
// that column.
type Quantiles struct {
	metric string
}

var (
	_ Analyzer                = (*Quantiles)(nil)
	_ engine.FrontierObserver = (*Quantiles)(nil)
)

// quantileMetrics are the base quantities the family can promote. Wall time
// is deliberately excluded: metric columns must stay deterministic so
// parallel and sequential suite executions agree byte for byte.
var quantileMetrics = map[string]func(engine.Result) float64{
	"rounds":   func(r engine.Result) float64 { return float64(r.Rounds) },
	"messages": func(r engine.Result) float64 { return float64(r.TotalMessages) },
	"lost":     func(r engine.Result) float64 { return float64(r.Lost) },
}

func init() {
	Register("quantiles", Family{
		Params: []Param{
			{Name: "metric", Kind: StringParam, Default: "rounds",
				Doc: "base quantity to promote: rounds, messages, or lost"},
		},
		Doc: "promotes a base result quantity to a metric column for scenario-layer stats.Summary aggregation",
		MetricsFor: func(v Values) []string {
			return []string{v.String("metric")}
		},
		New: func(ctx Context, v Values) (Analyzer, error) {
			metric := v.String("metric")
			if _, ok := quantileMetrics[metric]; !ok {
				return nil, fmt.Errorf("quantiles: unknown metric %q (want rounds, messages, or lost)", metric)
			}
			return &Quantiles{metric: metric}, nil
		},
	})
}

// Family implements Analyzer.
func (q *Quantiles) Family() string { return "quantiles" }

// Start implements Analyzer.
func (q *Quantiles) Start(origins []graph.NodeID) error { return nil }

// ObserveRound implements engine.RoundObserver.
func (q *Quantiles) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return q.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver.
func (q *Quantiles) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver; the promoted quantity
// comes from the result, so observation is a no-op that never requests a
// stop.
func (q *Quantiles) ObserveFrontier(engine.Frontier) (bool, error) {
	return false, nil
}

// Finish implements Analyzer.
func (q *Quantiles) Finish(res engine.Result) (Metrics, error) {
	return Metrics{q.metric: quantileMetrics[q.metric](res)}, nil
}
