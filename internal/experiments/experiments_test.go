package experiments_test

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"amnesiacflood/internal/experiments"
	"amnesiacflood/internal/sim"
)

func TestAllExperimentsSucceed(t *testing.T) {
	cfg := experiments.DefaultConfig()
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", exp.ID, exp.Name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s returned no tables", exp.ID)
			}
			for _, table := range tables {
				if table.ID != exp.ID {
					t.Errorf("table ID %q under experiment %q", table.ID, exp.ID)
				}
				if len(table.Rows) == 0 {
					t.Errorf("%s table %q has no rows", exp.ID, table.Title)
				}
				for _, row := range table.Rows {
					if len(row) != len(table.Columns) {
						t.Errorf("%s: row width %d != %d columns", exp.ID, len(row), len(table.Columns))
					}
				}
			}
		})
	}
}

func TestExperimentIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range experiments.All() {
		if seen[exp.ID] {
			t.Errorf("duplicate experiment ID %s", exp.ID)
		}
		seen[exp.ID] = true
		if exp.Run == nil || exp.Name == "" {
			t.Errorf("experiment %s incomplete", exp.ID)
		}
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// TestRunAllPrintsEveryExperiment pins the reproduction's numbers: the
// default suite's output must equal testdata/runall.txt byte for byte. A
// change that moves a number on purpose regenerates the file with
//
//	go run ./cmd/afbench > internal/experiments/testdata/runall.txt
//
// and the diff shows the reviewer what moved.
func TestRunAllPrintsEveryExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := experiments.DefaultConfig()
	if err := experiments.RunAll(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("RunAll output missing %s", id)
		}
	}
	golden, err := os.ReadFile("testdata/runall.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(out, "\n"), strings.Split(string(golden), "\n")
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("RunAll output differs from testdata/runall.txt at line %d:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("RunAll output has %d lines, testdata/runall.txt %d", len(got), len(want))
	}
}

// TestSweepsRunAtEvenScale: the scaled sweeps build valid instances at an
// even scale too; E5's odd cycles must stay odd for every scale s.
func TestSweepsRunAtEvenScale(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 2
	for _, exp := range experiments.All() {
		switch exp.ID {
		case "E4", "E5", "E13":
			if _, err := exp.Run(cfg); err != nil {
				t.Errorf("%s at scale 2: %v", exp.ID, err)
			}
		}
	}
}

func TestDifferentSeedsStillSatisfyClaims(t *testing.T) {
	// The theorem checks inside the experiments must hold for any seed,
	// not just the recorded default.
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	for _, seed := range []int64{1, 7, 123456789} {
		cfg := experiments.Config{Seed: seed, Scale: 1}
		for _, exp := range experiments.All() {
			if _, err := exp.Run(cfg); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, exp.ID, err)
			}
		}
	}
}

func TestTableFprintAlignment(t *testing.T) {
	table := &experiments.Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"col", "value"},
	}
	table.AddRow("x", 1)
	table.AddRow("longer", 22)
	table.AddNote("a note with %d", 42)
	var buf bytes.Buffer
	if err := table.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "col", "longer  22", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := experiments.DefaultConfig()
	if cfg.Seed == 0 || cfg.Scale != 1 {
		t.Fatalf("default config = %+v", cfg)
	}
}

func TestSuiteEngineInvariance(t *testing.T) {
	// The engine is an execution substrate, not a parameter of the claims:
	// every experiment must emit identical tables whichever engine runs it.
	want := map[string][]*experiments.Table{}
	base := experiments.DefaultConfig()
	// E4 and E6 run untraced, so bitset feeds their coverage through the
	// frontier path: unordered, possibly repeated receivers.
	picked := map[string]bool{"E1": true, "E3": true, "E4": true, "E5": true, "E6": true, "E8": true, "E13": true}
	for _, exp := range experiments.All() {
		if !picked[exp.ID] {
			continue
		}
		tables, err := exp.Run(base)
		if err != nil {
			t.Fatalf("%s sequential: %v", exp.ID, err)
		}
		want[exp.ID] = tables
	}
	for _, kind := range []sim.EngineKind{sim.Fast, sim.Bitset} {
		cfg := base
		cfg.Engine = kind
		for _, exp := range experiments.All() {
			if !picked[exp.ID] {
				continue
			}
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", exp.ID, kind, err)
			}
			if !reflect.DeepEqual(tables, want[exp.ID]) {
				t.Errorf("%s: tables differ between sequential and %s engines", exp.ID, kind)
			}
		}
	}
}
