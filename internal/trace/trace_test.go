package trace_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/trace"
)

func TestLetters(t *testing.T) {
	cases := map[graph.NodeID]string{
		0: "a", 1: "b", 25: "z", 26: "aa", 27: "ab", 51: "az", 52: "ba", 701: "zz", 702: "aaa",
	}
	for id, want := range cases {
		if got := trace.Letters(id); got != want {
			t.Errorf("Letters(%d) = %q, want %q", id, got, want)
		}
	}
	if got := trace.Letters(-3); got != "-3" {
		t.Errorf("Letters(-3) = %q", got)
	}
}

func TestNumbers(t *testing.T) {
	if got := trace.Numbers(17); got != "17" {
		t.Errorf("Numbers(17) = %q", got)
	}
}

// floodTrace runs amnesiac flooding on g from src and returns its trace.
func floodTrace(t *testing.T, g *graph.Graph, src graph.NodeID) []engine.RoundRecord {
	t.Helper()
	res, err := engine.Run(context.Background(), g, core.MustNewFlood(g, src), engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func fig1Trace(t *testing.T) []engine.RoundRecord {
	return floodTrace(t, gen.Path(4), 1)
}

func TestRenderRoundsFig1(t *testing.T) {
	records := fig1Trace(t)
	var buf bytes.Buffer
	if err := trace.RenderRounds(&buf, records, trace.Letters); err != nil {
		t.Fatal(err)
	}
	want := "round 1: sending {b}  edges b->a b->c\n" +
		"round 2: sending {c}  edges c->d\n"
	if buf.String() != want {
		t.Fatalf("render = %q, want %q", buf.String(), want)
	}
}

func TestRenderRoundsDefaultsToNumbers(t *testing.T) {
	records := fig1Trace(t)
	var buf bytes.Buffer
	if err := trace.RenderRounds(&buf, records, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1->0") {
		t.Fatalf("numeric render = %q", buf.String())
	}
}

func TestTimelineFig2(t *testing.T) {
	records := floodTrace(t, gen.Cycle(3), 1)
	var buf bytes.Buffer
	if err := trace.Timeline(&buf, gen.Cycle(3), records, trace.Letters); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline lines = %d, want 4 (header + 3 nodes):\n%s", len(lines), buf.String())
	}
	// Node a receives in round 1, both-sends-and-receives in round 2,
	// sends in round 3.
	if !strings.HasPrefix(lines[1], "a") || !strings.Contains(lines[1], "R") {
		t.Errorf("row a = %q", lines[1])
	}
	if !strings.Contains(lines[1], "B") {
		t.Errorf("row a missing B (send+receive round): %q", lines[1])
	}
	// Origin b sends in round 1, receives in round 3.
	if !strings.HasPrefix(lines[2], "b") || !strings.Contains(lines[2], "S") {
		t.Errorf("row b = %q", lines[2])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, fig1Trace(t)); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 3 messages.
	if len(records) != 4 {
		t.Fatalf("CSV rows = %d, want 4: %v", len(records), records)
	}
	if records[0][0] != "round" || records[1][0] != "1" || records[3][2] != "3" {
		t.Fatalf("CSV contents: %v", records)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	records := fig1Trace(t)
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	var back []engine.RoundRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !engine.EqualTraces(records, back) {
		t.Fatalf("JSON round trip changed trace: %v vs %v", records, back)
	}
}

func TestTimelineEmptyRun(t *testing.T) {
	g, err := graph.FromEdges("", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Timeline(&buf, g, floodTrace(t, g, 0), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "node") {
		t.Fatalf("timeline header missing: %q", buf.String())
	}
}
