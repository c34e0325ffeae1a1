package experiments

import (
	"fmt"
	"strings"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
	"amnesiacflood/internal/trace"
)

// figureTable renders a traced single-source run as a per-round table in
// the style of the paper's figures: the circled (sending) nodes and the
// message edges of every round.
func figureTable(id, title string, records []engine.RoundRecord) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"round", "sending (circled)", "message edges"},
	}
	for _, rec := range records {
		senders := rec.Senders()
		names := make([]string, len(senders))
		for i, s := range senders {
			names[i] = trace.Letters(s)
		}
		edges := make([]string, len(rec.Sends))
		for i, s := range rec.Sends {
			edges[i] = trace.Letters(s.From) + "->" + trace.Letters(s.To)
		}
		t.AddRow(rec.Round, strings.Join(names, ","), strings.Join(edges, " "))
	}
	return t
}

// Fig1Line regenerates Figure 1: amnesiac flooding on the 4-node line
// a-b-c-d starting from b terminates in 2 rounds, less than the diameter 3.
func Fig1Line(cfg Config) ([]*Table, error) {
	g := gen.Path(4) // a=0, b=1, c=2, d=3
	source := graph.NodeID(1)
	res, cov, err := flood(cfg, g, true, source)
	if err != nil {
		return nil, err
	}
	t := figureTable("E1", "Figure 1: AF on the line a-b-c-d from b", res.Trace)
	diam := algo.Diameter(g)
	ecc := algo.Eccentricity(g, source)
	t.AddNote("paper: terminates in 2 rounds (< diameter %d); measured: %d rounds", diam, res.Rounds)
	t.AddNote("eccentricity of b is %d; Lemma 2.1 predicts exactly that", ecc)
	if err := theory.CheckBipartiteExact(g, res, cov); err != nil {
		return nil, fmt.Errorf("figure 1 violates Lemma 2.1: %w", err)
	}
	if res.Rounds != 2 {
		return nil, fmt.Errorf("figure 1: got %d rounds, paper shows 2", res.Rounds)
	}
	return []*Table{t}, nil
}

// Fig2Triangle regenerates Figure 2: amnesiac flooding on the triangle
// (a, b, c) from b; a and c exchange M in round 2 and return it to b in
// round 3, terminating in 3 = 2D+1 rounds (D = 1).
func Fig2Triangle(cfg Config) ([]*Table, error) {
	g := gen.Cycle(3) // a=0, b=1, c=2
	source := graph.NodeID(1)
	res, cov, err := flood(cfg, g, true, source)
	if err != nil {
		return nil, err
	}
	t := figureTable("E2", "Figure 2: AF on the triangle from b", res.Trace)
	diam := algo.Diameter(g)
	t.AddNote("paper: terminates in 3 = 2D+1 rounds (D=%d); measured: %d rounds", diam, res.Rounds)
	if err := theory.CheckNonBipartiteStrict(g, res, cov); err != nil {
		return nil, fmt.Errorf("figure 2 violates Theorem 3.3: %w", err)
	}
	if res.Rounds != 2*diam+1 {
		return nil, fmt.Errorf("figure 2: got %d rounds, paper shows %d", res.Rounds, 2*diam+1)
	}
	// The figure's specific exchanges: a and c send to each other in
	// round 2, then both send to b in round 3.
	for i, want := range []string{"b->a b->c", "a->c c->a", "a->b c->b"} {
		if got := t.Rows[i][2]; got != want {
			return nil, fmt.Errorf("figure 2 round %d: got %q, paper shows %q", i+1, got, want)
		}
	}
	return []*Table{t}, nil
}

// Fig3EvenCycle regenerates Figure 3: amnesiac flooding on the 6-cycle
// terminates in diameter (= 3) rounds from every starting node, visiting
// each node exactly once.
func Fig3EvenCycle(cfg Config) ([]*Table, error) {
	g := gen.Cycle(6)
	res, cov, err := flood(cfg, g, true, 0)
	if err != nil {
		return nil, err
	}
	t := figureTable("E3", "Figure 3: AF on the even cycle C6 from a", res.Trace)
	diam := algo.Diameter(g)
	t.AddNote("paper: terminates in D = %d rounds; measured: %d rounds", diam, res.Rounds)
	if err := theory.CheckBipartiteExact(g, res, cov); err != nil {
		return nil, fmt.Errorf("figure 3 violates Lemma 2.1: %w", err)
	}

	// Second table: every source of C6 behaves identically (symmetry),
	// confirming the "from any originating node" claim.
	all := &Table{
		ID:      "E3",
		Title:   "Figure 3 (cont.): every C6 source",
		Columns: []string{"source", "rounds", "diameter", "each node visited once"},
	}
	for s := 0; s < g.N(); s++ {
		resS, covS, err := flood(cfg, g, false, graph.NodeID(s))
		if err != nil {
			return nil, err
		}
		if err := theory.CheckBipartiteExact(g, resS, covS); err != nil {
			return nil, fmt.Errorf("figure 3 source %d: %w", s, err)
		}
		all.AddRow(trace.Letters(graph.NodeID(s)), resS.Rounds, diam, covS.MaxReceives() == 1)
	}
	all.AddNote("paper: AF from any originating node terminates in diameter rounds")
	return []*Table{t, all}, nil
}
