package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

// WavefrontProfile is experiment E18: the per-round message series behind
// the paper's figures — how many edges carry M in each round, from the
// first send to the last. The shapes are sharply family-specific and each
// is asserted:
//
//   - bipartite graphs: the series is the BFS frontier cut (messages in
//     round i run from layer i-1 to layer i), collapsing to zero at
//     e(source);
//   - odd cycles: after round 1 the series is the constant 2 — two lonely
//     wavefronts chase each other for n rounds before annihilating at the
//     origin's antipodal edge;
//   - cliques: a 3-round spike (n-1, then (n-1)(n-2), then n-1);
//   - non-bipartite graphs in general: the double-cover law makes the
//     series the layer cuts of the cover.
func WavefrontProfile(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Wavefront profile: messages in flight per round",
		Columns: []string{"graph", "source", "rounds", "profile (messages per round)"},
	}
	type testCase struct {
		g      *graph.Graph
		source graph.NodeID
	}
	cases := []testCase{
		{gen.Path(10), 0},
		{gen.Path(10), 4},
		{gen.Cycle(10), 0},
		{gen.Cycle(11), 0},
		{gen.Complete(8), 0},
		{gen.Grid(4, 5), 0},
		{gen.Hypercube(4), 0},
		{gen.Petersen(), 0},
		{gen.Lollipop(4, 6), 9},
	}
	for _, tc := range cases {
		res, _, err := flood(cfg, tc.g, true, tc.source)
		if err != nil {
			return nil, fmt.Errorf("E18: %s: %w", tc.g, err)
		}
		profile := messagesPerRound(res)
		sum := 0
		for _, m := range profile {
			sum += m
		}
		if sum != res.TotalMessages {
			return nil, fmt.Errorf("E18: %s: profile sums to %d, want %d", tc.g, sum, res.TotalMessages)
		}
		t.AddRow(tc.g.Name(), tc.source, res.Rounds, renderProfile(profile))
	}

	// Assertions on the characteristic shapes.
	odd, _, err := flood(cfg, gen.Cycle(11), true, 0)
	if err != nil {
		return nil, err
	}
	for i, m := range messagesPerRound(odd) {
		if m != 2 {
			return nil, fmt.Errorf("E18: odd cycle round %d carries %d messages, want constant 2", i+1, m)
		}
	}
	clique, _, err := flood(cfg, gen.Complete(8), true, 0)
	if err != nil {
		return nil, err
	}
	wantClique := []int{7, 42, 7} // n-1, (n-1)(n-2), n-1
	gotClique := messagesPerRound(clique)
	if len(gotClique) != 3 || gotClique[0] != wantClique[0] || gotClique[1] != wantClique[1] || gotClique[2] != wantClique[2] {
		return nil, fmt.Errorf("E18: K8 profile %v, want %v", gotClique, wantClique)
	}
	// Bipartite: the profile equals the BFS layer cuts.
	bip := gen.Grid(4, 5)
	bipRes, bipCov, err := flood(cfg, bip, true, 0)
	if err != nil {
		return nil, err
	}
	if err := theory.CheckBipartiteExact(bip, bipRes, bipCov); err != nil {
		return nil, fmt.Errorf("E18: %w", err)
	}
	dist := algo.BFS(bip, 0)
	for i, m := range messagesPerRound(bipRes) {
		round := i + 1
		cut := 0
		for _, e := range bip.Edges() {
			if (dist[e.U] == round-1 && dist[e.V] == round) ||
				(dist[e.V] == round-1 && dist[e.U] == round) {
				cut++
			}
		}
		if m != cut {
			return nil, fmt.Errorf("E18: grid round %d carries %d messages, BFS cut is %d", round, m, cut)
		}
	}
	t.AddNote("odd cycles: two lonely wavefronts, constant 2 messages/round for n rounds (why 2D+1 is tight)")
	t.AddNote("cliques: a single 3-round spike n-1 / (n-1)(n-2) / n-1 — the 'echo' is one giant cross-exchange")
	t.AddNote("bipartite graphs: the profile is exactly the BFS layer-cut sequence (verified edge for edge on the grid)")
	return []*Table{t}, nil
}

// messagesPerRound extracts the per-round send counts from a traced run.
func messagesPerRound(res engine.Result) []int {
	out := make([]int, len(res.Trace))
	for i, rec := range res.Trace {
		out[i] = len(rec.Sends)
	}
	return out
}

// renderProfile prints a short series like "2 2 2 2" with long series
// elided in the middle.
func renderProfile(profile []int) string {
	parts := make([]string, len(profile))
	for i, m := range profile {
		parts[i] = strconv.Itoa(m)
	}
	if len(parts) > 14 {
		parts = append(append(append([]string{}, parts[:6]...), "..."), parts[len(parts)-6:]...)
	}
	return strings.Join(parts, " ")
}
