package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/stats"
)

// LossCurve is experiment E15: the quantitative version of E12's findings.
// For each loss probability p, many independent seeded runs under
// schedule:loss:p=P measure how often the flood dies on its own within the
// round budget, how long the surviving runs live, and how much of the
// graph gets covered.
//
// The curve's shape is the result: on trees, termination probability stays
// at 1 for every p while coverage decays with p; on dense cyclic graphs
// even p = 0.01 makes "still alive at the budget" the common case (every
// lost copy desynchronises the cancelling wavefronts) while coverage stays
// at 1 — loss trades termination for noise rather than reach. The bare
// cycle sits in between: its lonely wavefronts are single messages, so
// persistent loss eventually kills them and the flood still terminates.
func LossCurve(cfg Config) ([]*Table, error) {
	runsPer := 10 * cfg.scaled(1)
	budget := 512
	probs := []float64{0, 0.01, 0.05, 0.1, 0.2, 0.4}

	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	type family struct {
		label string
		g     *graph.Graph
	}
	families := []family{
		{"randomTree(100)", gen.RandomTree(100, rng)},
		{"cycle(32)", gen.Cycle(32)},
		{"grid(8x8)", gen.Grid(8, 8)},
		{"randomNonBipartite(100)", gen.RandomNonBipartite(100, 0.04, rng)},
	}

	t := &Table{
		ID:    "E15",
		Title: fmt.Sprintf("Loss curve: %d runs per point, %d-round budget", runsPer, budget),
		Columns: []string{
			"graph", "loss p", "terminated frac", "mean rounds (terminated)",
			"mean coverage frac", "min coverage frac",
		},
	}
	for _, fam := range families {
		isTree := fam.g.M() == fam.g.N()-1
		for _, p := range probs {
			var terminated []bool
			var rounds []float64
			var coverage []float64
			spec := "schedule:loss:p=" + strconv.FormatFloat(p, 'g', -1, 64)
			for i := 0; i < runsPer; i++ {
				src := graph.NodeID((i * 13) % fam.g.N())
				res, cov, err := runModel(fam.g, spec, cfg.Seed+int64(i)*7919, budget, false, src)
				if err != nil {
					return nil, fmt.Errorf("E15: %s p=%.2f: %w", fam.label, p, err)
				}
				done := res.Outcome == engine.OutcomeTerminated
				terminated = append(terminated, done)
				if done {
					rounds = append(rounds, float64(res.Rounds))
				}
				n := fam.g.N()
				coverage = append(coverage, float64(n-cov.Uncovered())/float64(n))
			}
			if isTree && stats.Fraction(terminated) != 1 {
				return nil, fmt.Errorf("E15: tree %s failed to terminate under loss p=%.2f", fam.label, p)
			}
			if p == 0 {
				if stats.Fraction(terminated) != 1 {
					return nil, fmt.Errorf("E15: %s failed to terminate with p=0", fam.label)
				}
				covSummary := stats.Summarize(coverage)
				if covSummary.Min != 1 {
					return nil, fmt.Errorf("E15: %s lost coverage with p=0", fam.label)
				}
			}
			roundSummary := stats.Summarize(rounds)
			covSummary := stats.Summarize(coverage)
			meanRounds := "-"
			if roundSummary.N > 0 {
				meanRounds = fmt.Sprintf("%.1f", roundSummary.Mean)
			}
			t.AddRow(fam.label, fmt.Sprintf("%.2f", p),
				fmt.Sprintf("%.2f", stats.Fraction(terminated)),
				meanRounds,
				fmt.Sprintf("%.2f", covSummary.Mean),
				fmt.Sprintf("%.2f", covSummary.Min))
		}
	}
	t.AddNote("trees: termination frac pinned at 1.00, coverage decays with p (loss only prunes)")
	t.AddNote("dense cyclic graphs: termination frac collapses even at p=0.01 — lost copies leave un-cancelled wavefronts that feed each other — while coverage stays at 1.00")
	t.AddNote("the bare cycle still terminates under persistent loss: a lonely wavefront is a single message per round, so repeated loss eventually kills it too (at the price of coverage)")
	return []*Table{t}, nil
}
