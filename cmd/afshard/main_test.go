package main

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"
)

// TestRunMergesLikeTheLocalRunner: one afshard worker drains a coordinator,
// and the merged rows equal the local runner's, order-normalised.
func TestRunMergesLikeTheLocalRunner(t *testing.T) {
	specs, err := scenario.Matrix{
		Graphs:    []string{"grid:rows=3,cols=4", "cycle:n=9"},
		Protocols: []string{"amnesiac", "classic"},
		Seeds:     []int64{1, 2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	if err := run([]string{"-coordinator", srv.URL, "-name", "test", "-pool", "2", "-log-level", "error"}); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&scenario.Runner{}).Run(t.Context(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2*2*2 {
		t.Fatalf("local runner made %d rows, want 8", len(want))
	}
	if g, w := jsonLines(t, got), jsonLines(t, want); g != w {
		t.Fatalf("merged rows diverged from the local runner's:\n%s\nvs\n%s", g, w)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                  // no -coordinator
		{"-name", "w1"},     // still no -coordinator
		{"-mode", "worker"}, // retired flag
		{"-coordinator", "http://127.0.0.1:1", "-log-level", "loud"}, // bad level, checked before dialling
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// jsonLines renders results sorted by spec ID, as the JSONL sink writes them,
// with wall time and attempts zeroed.
func jsonLines(t *testing.T, results []scenario.Result) string {
	t.Helper()
	rows := append([]scenario.Result(nil), results...)
	scenario.SortResults(rows)
	var b strings.Builder
	for _, row := range rows {
		row.WallMicros, row.Attempts = 0, 0
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}
