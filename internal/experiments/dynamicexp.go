package experiments

import (
	"fmt"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph/gen"
)

// DynamicNetworks is experiment E14, executing the paper's open question
// about non-static networks: amnesiac flooding over graphs whose edges
// come and go between rounds, addressed as "schedule:..." model specs
// through the sim façade.
//
// Findings: a static schedule reproduces the synchronous results exactly;
// one single-round edge outage on a cycle leaves an eternally circulating
// wavefront (the dynamic twin of the E12 message-loss finding); periodic
// churn (blinking links, alternating halves) can either cut the flood
// short, sustain it forever, or leave it untouched, depending on phase
// alignment — termination under dynamics is a property of the schedule,
// not the graph.
func DynamicNetworks(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Dynamic networks: AF under edge churn",
		Columns: []string{
			"graph", "model", "outcome", "rounds", "delivered", "lost", "coverage", "period",
		},
	}
	type testCase struct {
		graph string
		model string
	}
	cases := []testCase{
		{"cycle:n=4", "schedule:static"},
		{"cycle:n=4", "schedule:outage:round=1,u=0,v=3"},
		{"cycle:n=6", "schedule:outage:round=2,u=2,v=3"},
		{"cycle:n=7", "schedule:outage:round=1,u=0,v=6"},
		{"bintree:levels=4", "schedule:outage:round=1,u=0,v=1"},
		{"path:n=4", "schedule:blink:u=1,v=2,period=2,phase=0"},
		{"path:n=4", "schedule:blink:u=1,v=2,period=2,phase=1"},
		{"cycle:n=8", "schedule:blink:u=0,v=7,period=3,phase=1"},
		{"cycle:n=6", "schedule:alternating"},
		{"grid:rows=4,cols=4", "schedule:alternating"},
		{"complete:n=6", "schedule:alternating"},
		{"petersen", "schedule:alternating"},
	}
	for _, tc := range cases {
		g, err := gen.Build(tc.graph, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("E14: %s: %w", tc.graph, err)
		}
		res, cov, err := runModel(g, tc.model, cfg.Seed, 4096, false, 0)
		if err != nil {
			return nil, fmt.Errorf("E14: %s under %s: %w", tc.graph, tc.model, err)
		}
		period := "-"
		if res.Certificate != nil {
			period = fmt.Sprintf("%d", res.Certificate.Length)
		}
		t.AddRow(tc.graph, tc.model, res.Outcome, res.Rounds,
			res.TotalMessages, res.Lost,
			fmt.Sprintf("%d/%d", g.N()-cov.Uncovered(), g.N()), period)
	}
	// Hard assertions for the headline rows.
	check, _, err := runModel(gen.Cycle(4), "schedule:outage:round=1,u=0,v=3", cfg.Seed, 0, false, 0)
	if err != nil {
		return nil, err
	}
	if check.Outcome != engine.OutcomeCycle {
		return nil, fmt.Errorf("E14: C4 single outage outcome %v, want certified non-termination", check.Outcome)
	}
	static, _, err := runModel(gen.Cycle(4), "schedule:static", cfg.Seed, 0, false, 0)
	if err != nil {
		return nil, err
	}
	if static.Outcome != engine.OutcomeTerminated || static.Rounds != 2 {
		return nil, fmt.Errorf("E14: static C4 run diverged from the synchronous engine")
	}
	t.AddNote("a one-round outage of a single cycle edge leaves a wavefront circulating forever — the dynamic counterpart of E12's lost message")
	t.AddNote("periodic churn outcomes are certified (configuration x schedule-phase repetition), never timed out")
	return []*Table{t}, nil
}
