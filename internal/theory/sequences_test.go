package theory_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

func TestAnalyzeSequencesTriangle(t *testing.T) {
	// Figure 2 run: R_0={b}, R_1={a,c}, R_2={a,c}, R_3={b}.
	_, cov := run(t, gen.Cycle(3), 1)
	analysis, err := theory.AnalyzeSequences(cov)
	if err != nil {
		t.Fatal(err)
	}
	// Sequences: a in (1,2), c in (1,2), b in (0,3) -> durations 1,1,3.
	if len(analysis.Sequences) != 3 {
		t.Fatalf("sequences = %v, want 3", analysis.Sequences)
	}
	if analysis.EvenCount != 0 {
		t.Fatalf("Re = %d, want 0", analysis.EvenCount)
	}
	if analysis.MinDuration != 1 || analysis.MaxDuration != 3 {
		t.Fatalf("durations = %d..%d, want 1..3", analysis.MinDuration, analysis.MaxDuration)
	}
	if analysis.DurationHistogram[1] != 2 || analysis.DurationHistogram[3] != 1 {
		t.Fatalf("histogram = %v", analysis.DurationHistogram)
	}
	if _, ok := analysis.MinimalEvenSequence(); ok {
		t.Fatal("found an even sequence in a real run")
	}
}

func TestAnalyzeSequencesBipartiteEmpty(t *testing.T) {
	// On bipartite graphs every node occurs once, so R itself is empty.
	_, cov := run(t, gen.Grid(4, 5), 3)
	analysis, err := theory.AnalyzeSequences(cov)
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.Sequences) != 0 {
		t.Fatalf("bipartite run has sequences: %v", analysis.Sequences)
	}
	if analysis.MinDuration != 0 || analysis.MaxDuration != 0 {
		t.Fatal("empty analysis has non-zero durations")
	}
}

func TestSequenceStringAndEnd(t *testing.T) {
	s := theory.Sequence{Node: 4, Start: 2, Duration: 3}
	if s.End() != 5 {
		t.Fatalf("End = %d", s.End())
	}
	if got := s.String(); !strings.Contains(got, "R_2") || !strings.Contains(got, "R_5") {
		t.Fatalf("String = %q", got)
	}
}

func TestMinimalEvenSequencePicksPaperMinimum(t *testing.T) {
	// Doctored run: node 1 at rounds 1 and 5 (d=4), node 2 at rounds 2
	// and 4 (d=2), node 3 at rounds 1 and 3 (d=2). R* must be node 3's:
	// duration 2 (minimal), start 1 (earliest among duration-2).
	cov := doctored(t, gen.Path(4), []graph.NodeID{0},
		[]graph.NodeID{1, 3}, // round 1
		[]graph.NodeID{2},    // round 2
		[]graph.NodeID{3},    // round 3
		[]graph.NodeID{2},    // round 4
		[]graph.NodeID{1},    // round 5
	)
	analysis, err := theory.AnalyzeSequences(cov)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := analysis.MinimalEvenSequence()
	if !ok {
		t.Fatal("no even sequence found")
	}
	if seq.Node != 3 || seq.Start != 1 || seq.Duration != 2 {
		t.Fatalf("R* = %v, want node 3 start 1 duration 2", seq)
	}
	if analysis.EvenCount != 3 {
		t.Fatalf("EvenCount = %d, want 3", analysis.EvenCount)
	}
}

func TestCheckSequenceMachineryAgreesWithGapCheck(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomConnected(2+rng.Intn(40), 0.08, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		_, cov := run(t, g, src)
		return theory.CheckSequenceMachinery(cov) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSequenceMachineryFlagsDoctoredRun(t *testing.T) {
	// Origin back at round 2: d=2.
	cov := doctored(t, gen.Path(2), []graph.NodeID{0}, []graph.NodeID{1}, []graph.NodeID{0})
	err := theory.CheckSequenceMachinery(cov)
	if err == nil || !strings.Contains(err.Error(), "Re is non-empty") {
		t.Fatalf("err = %v, want Re non-empty", err)
	}
}
