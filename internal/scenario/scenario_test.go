package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/scenario"

	// Protocols and model families under test self-register on import.
	_ "amnesiacflood/internal/registry/all"
)

// acceptanceMatrix is the issue's acceptance shape: >= 3 graph families ×
// >= 2 protocols × >= 2 engines.
func acceptanceMatrix() scenario.Matrix {
	return scenario.Matrix{
		Graphs:     []string{"grid:rows=4,cols=5", "cycle:n=9", "prefattach:n=24,m=2", "petersen"},
		Protocols:  []string{"amnesiac", "classic"},
		Engines:    []string{"sequential", "fast"},
		OriginSets: [][]graph.NodeID{{0}, {3}},
		Seeds:      []int64{1, 2},
	}
}

func TestMatrixExpand(t *testing.T) {
	specs, err := acceptanceMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 2 * 2 * 2 * 2; len(specs) != want {
		t.Fatalf("expanded %d specs, want %d", len(specs), want)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID()] {
			t.Fatalf("duplicate spec %s", s.ID())
		}
		seen[s.ID()] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("expanded spec invalid: %v", err)
		}
	}
	// Expansion is deterministic.
	again, err := acceptanceMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Fatal("two expansions of the same matrix differ")
	}
}

func TestMatrixDefaults(t *testing.T) {
	specs, err := scenario.Matrix{Graphs: []string{"path:n=4"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("got %d specs", len(specs))
	}
	s := specs[0]
	if s.Protocol != "amnesiac" || s.Engine != "sequential" || s.Model != "sync" || s.Seed != 1 || len(s.Origins) != 1 || s.Origins[0] != 0 {
		t.Fatalf("defaults wrong: %+v", s)
	}
}

// TestMatrixCells: Cells counts Expand's specs without expanding, an empty
// axis counting as its one default, and saturates instead of overflowing.
func TestMatrixCells(t *testing.T) {
	for i, m := range []scenario.Matrix{
		{Graphs: []string{"path:n=4"}},
		{Graphs: []string{"path:n=4"}, Reps: -2},
		{Graphs: []string{"path:n=4", "cycle:n=5"}, Seeds: []int64{1, 1, 2}, Reps: 3},
		{Graphs: []string{"path:n=4"}, Models: []string{"sync", "schedule:static"}, Analyses: []string{"coverage", "termination"}},
		acceptanceMatrix(),
	} {
		specs, err := m.Expand()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := m.Cells(); got != len(specs) {
			t.Errorf("case %d: Cells() = %d, Expand returned %d specs", i, got, len(specs))
		}
	}
	huge := scenario.Matrix{Graphs: []string{"path:n=4"}, Seeds: []int64{1, 2}, Reps: math.MaxInt}
	if got := huge.Cells(); got != math.MaxInt {
		t.Errorf("Cells() = %d on a matrix past math.MaxInt, want math.MaxInt", got)
	}
}

// TestMatrixModelAxis expands and runs the fourth axis: sync, an
// adversary, and a schedule over two graphs, asserting canonicalisation,
// certified outcomes, and the model column in the sinks.
func TestMatrixModelAxis(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs: []string{"cycle:n=9", "path:n=6"},
		// Non-canonical spellings canonicalise on expansion.
		Models:    []string{"SYNC", "adversary:collision", "schedule:blink:phase=1,period=2"},
		MaxRounds: 4096,
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; len(specs) != want {
		t.Fatalf("expanded %d specs, want %d", len(specs), want)
	}
	models := map[string]bool{}
	for _, s := range specs {
		models[s.Model] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("expanded spec invalid: %v", err)
		}
	}
	for _, want := range []string{"sync", "adversary:collision", "schedule:blink:period=2,phase=1"} {
		if !models[want] {
			t.Fatalf("model axis missing %q (have %v)", want, models)
		}
	}

	agg := scenario.NewAggregate()
	results, err := (&scenario.Runner{Workers: 4, Sink: agg}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	certified := 0
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("run %s failed: %s", res.Spec.ID(), res.Err)
		}
		if res.Outcome == "" {
			t.Fatalf("run %s has no outcome", res.Spec.ID())
		}
		if res.Outcome == "non-termination-certified" {
			certified++
			if res.CycleLength == 0 {
				t.Fatalf("certified run %s lacks a cycle length", res.Spec.ID())
			}
		}
	}
	if certified == 0 {
		t.Fatal("collision delayer on the odd cycle should have certified non-termination")
	}
	var cells int
	for _, c := range agg.Cells() {
		if c.Model == "" {
			t.Fatalf("aggregate cell lacks a model: %+v", c)
		}
		cells++
	}
	if cells != len(specs) {
		t.Fatalf("aggregate has %d cells, want %d", cells, len(specs))
	}

	if _, err := (scenario.Matrix{Graphs: []string{"path:n=4"}, Models: []string{"warp"}}).Expand(); err == nil {
		t.Fatal("unknown model kind accepted")
	}
	if _, err := (scenario.Matrix{Graphs: []string{"path:n=4"}, Models: []string{"adversary:nope"}}).Expand(); err == nil {
		t.Fatal("unknown model family accepted")
	}
}

// TestAnalysisMetricDeterminism is the acceptance criterion of the
// analysis axis: a matrix carrying analyses produces, under an 8-worker
// pool, metric columns byte-identical to sequential execution — analysis
// buffers are per-session, so worker interleaving cannot perturb them.
func TestAnalysisMetricDeterminism(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs:   []string{"grid:rows=4,cols=5", "cycle:n=9", "prefattach:n=24,m=2"},
		Engines:  []string{"sequential", "fast"},
		Models:   []string{"sync", "schedule:static"},
		Analyses: []string{"coverage", "termination", "quantiles:metric=messages"},
		Seeds:    []int64{1, 2},
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if len(s.Analyses) != 3 {
			t.Fatalf("spec %s lost its analyses", s.ID())
		}
	}
	ctx := context.Background()
	par, err := (&scenario.Runner{Workers: 8}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := (&scenario.Runner{Workers: 1}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, _ := json.Marshal(normalize(par))
	seqJSON, _ := json.Marshal(normalize(seq))
	if !bytes.Equal(parJSON, seqJSON) {
		t.Fatalf("parallel and sequential metric columns disagree:\n%s\nvs\n%s", parJSON, seqJSON)
	}
	for _, res := range par {
		if res.Err != "" {
			t.Fatalf("run %s failed: %s", res.Spec.ID(), res.Err)
		}
		if res.Metrics["coverage.covered"] != 1 {
			t.Fatalf("run %s not covered: %v", res.Spec.ID(), res.Metrics)
		}
		if int(res.Metrics["quantiles.messages"]) != res.TotalMessages {
			t.Fatalf("run %s: quantiles.messages %v != messages %d",
				res.Spec.ID(), res.Metrics["quantiles.messages"], res.TotalMessages)
		}
	}
	// The aggregate folds the metric columns into per-cell summaries.
	agg := scenario.NewAggregate()
	if _, err := (&scenario.Runner{Workers: 4, Sink: agg}).Run(ctx, specs); err != nil {
		t.Fatal(err)
	}
	for _, c := range agg.Cells() {
		summary, ok := c.MetricSummary("quantiles.messages")
		if !ok || summary.N == 0 {
			t.Fatalf("cell %s/%s lacks a quantiles.messages summary", c.Graph, c.Model)
		}
		if q, ok := c.MetricQuantile("quantiles.messages", 0.5); !ok || q != summary.Median {
			t.Fatalf("cell %s/%s: median quantile %g != summary median %g", c.Graph, c.Model, q, summary.Median)
		}
	}

	if _, err := (scenario.Matrix{Graphs: []string{"path:n=4"}, Analyses: []string{"nosuch"}}).Expand(); err == nil {
		t.Fatal("unknown analysis family accepted")
	}
}

func TestMatrixErrors(t *testing.T) {
	cases := []scenario.Matrix{
		{},                               // no graphs
		{Graphs: []string{"nosuch:n=4"}}, // unknown family
		{Graphs: []string{"path:zz=1"}},  // bad graph parameter
		{Graphs: []string{"path:n=4"}, Engines: []string{"warp"}},            // unknown engine
		{Graphs: []string{"path:n=4"}, Engines: []string{"parallel"}},        // retired engine
		{Graphs: []string{"path:n=4"}, Protocols: []string{"nosuch"}},        // unknown protocol
		{Graphs: []string{"path:n=4"}, Analyses: []string{"nosuch"}},         // unknown analysis
		{Graphs: []string{"path:n=4"}, Analyses: []string{"quantiles:zz=1"}}, // bad analysis parameter
	}
	for i, m := range cases {
		if _, err := m.Expand(); err == nil {
			t.Errorf("case %d: Expand succeeded, want error", i)
		}
	}
}

// normalize zeroes the one nondeterministic field so runs can be compared
// byte-for-byte.
func normalize(results []scenario.Result) []scenario.Result {
	out := append([]scenario.Result(nil), results...)
	for i := range out {
		out[i].WallMicros = 0
	}
	return out
}

// TestRunnerParallelMatchesSequential is the acceptance criterion: the full
// matrix under an 8-worker pool produces results byte-identical
// (order-normalised, wall time excluded) to sequential execution of the
// same specs.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	specs, err := acceptanceMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	par, err := (&scenario.Runner{Workers: 8}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := (&scenario.Runner{Workers: 1}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(specs) || len(seq) != len(specs) {
		t.Fatalf("result counts %d/%d, want %d", len(par), len(seq), len(specs))
	}
	parJSON, err := json.Marshal(normalize(par))
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := json.Marshal(normalize(seq))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, seqJSON) {
		t.Fatalf("parallel and sequential suites disagree:\n%s\nvs\n%s", parJSON, seqJSON)
	}
	for _, res := range par {
		if res.Err != "" {
			t.Errorf("%s failed: %s", res.Spec.ID(), res.Err)
		}
		if !res.Terminated {
			t.Errorf("%s did not terminate", res.Spec.ID())
		}
		if res.N == 0 || res.Rounds == 0 || res.TotalMessages == 0 {
			t.Errorf("%s has empty outcome: %+v", res.Spec.ID(), res)
		}
	}
}

// TestRunnerSeedsVaryRandomFamilies: distinct seeds rebuild random graphs,
// so the same family yields different instances across the seed axis.
func TestRunnerSeedsVaryRandomFamilies(t *testing.T) {
	specs, err := scenario.Matrix{
		Graphs: []string{"randconnected:n=40,p=0.05"},
		Seeds:  []int64{1, 2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&scenario.Runner{Workers: 2}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].M == results[1].M && results[0].TotalMessages == results[1].TotalMessages {
		t.Error("two seeds produced identical instances and runs (suspicious)")
	}
}

func TestRunnerMultiOriginAndErrorSpecs(t *testing.T) {
	specs := []scenario.Spec{
		{Graph: "cycle:n=12", Protocol: "multiflood", Engine: "fast", Origins: []graph.NodeID{0, 6}, Seed: 1},
		{Graph: "cycle:n=12", Protocol: "amnesiac", Engine: "fast", Origins: []graph.NodeID{99}, Seed: 1},
		{Graph: "cycle:n=2", Protocol: "amnesiac", Engine: "fast", Origins: []graph.NodeID{0}, Seed: 1},
	}
	results, err := (&scenario.Runner{Workers: 4}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	var okRuns, errRuns int
	for _, r := range results {
		if r.Err == "" {
			okRuns++
			if !r.Terminated {
				t.Errorf("%s did not terminate", r.Spec.ID())
			}
		} else {
			errRuns++
		}
	}
	if okRuns != 1 || errRuns != 2 {
		t.Fatalf("ok=%d err=%d, want 1 ok (multiflood) and 2 errors (bad origin, bad graph)", okRuns, errRuns)
	}
}

func TestRunnerCancellation(t *testing.T) {
	specs, err := scenario.Matrix{
		Graphs:  []string{"grid:rows=40,cols=40"},
		Engines: []string{"sequential"},
		Reps:    50,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := (&scenario.Runner{Workers: 2}).Run(ctx, specs)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(results) == len(specs) {
		t.Log("cancelled run still completed everything (tiny suite); acceptable but unexpected")
	}
}

func TestSinks(t *testing.T) {
	specs, err := scenario.Matrix{
		Graphs:    []string{"path:n=6", "cycle:n=7"},
		Protocols: []string{"amnesiac"},
		Engines:   []string{"sequential", "fast"},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, csvBuf bytes.Buffer
	csvSink := scenario.NewCSVSink(&csvBuf)
	agg := scenario.NewAggregate()
	sink := scenario.MultiSink{scenario.NewJSONLSink(&jsonl), csvSink, agg}
	results, err := (&scenario.Runner{Workers: 2, Sink: sink}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := csvSink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(specs))
	}
	for _, line := range lines {
		var res scenario.Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if res.Spec.Graph == "" || res.Rounds == 0 {
			t.Fatalf("JSONL line missing fields: %q", line)
		}
	}

	csvLines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(csvLines) != len(specs)+1 {
		t.Fatalf("CSV has %d lines, want header + %d", len(csvLines), len(specs))
	}
	if !strings.HasPrefix(csvLines[0], "graph,protocol,engine") {
		t.Fatalf("CSV header = %q", csvLines[0])
	}

	if got := agg.Results(); !reflect.DeepEqual(got, results) {
		t.Fatal("aggregate retained different results than the runner returned")
	}
	cells := agg.Cells()
	if len(cells) != 4 { // 2 graphs x 1 protocol x 2 engines
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Runs != 1 || c.Errors != 0 || c.MinRounds == 0 || c.MeanRounds() == 0 {
			t.Errorf("cell %+v has wrong stats", c)
		}
	}
	var table bytes.Buffer
	if err := agg.Fprint(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "path:n=6") {
		t.Fatalf("aggregate table missing rows:\n%s", table.String())
	}
}

func TestSpecIDStable(t *testing.T) {
	s := scenario.Spec{Graph: "path:n=4", Protocol: "amnesiac", Engine: "fast",
		Origins: []graph.NodeID{1, 2}, Analyses: []string{"coverage", "termination"},
		Seed: 3, Rep: 1, MaxRounds: 9}
	// The empty field before max= is the retired protocol-parameter slot,
	// kept so IDs written before it emptied still match.
	want := `path:n=4|amnesiac|fast|sync|o=1,2|a=coverage+termination|seed=3|rep=1||max=9`
	if got := s.ID(); got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
}

// errorSink fails every write, standing in for a closed pipe or full disk.
type errorSink struct{}

func (errorSink) Write(scenario.Result) error { return errors.New("pipe closed") }

// TestRunnerStopsOnSinkError: the first sink failure cancels the remaining
// work instead of burning through the whole suite with writes skipped.
func TestRunnerStopsOnSinkError(t *testing.T) {
	matrix := scenario.Matrix{Graphs: []string{"path:n=4"}, Seeds: make([]int64, 0, 200)}
	for s := int64(1); s <= 200; s++ {
		matrix.Seeds = append(matrix.Seeds, s)
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&scenario.Runner{Workers: 1, Sink: errorSink{}}).Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err = %v, want sink error", err)
	}
	if len(results) == len(specs) {
		t.Fatalf("suite ran all %d specs despite the sink failing on the first", len(specs))
	}
}
