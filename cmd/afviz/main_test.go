package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFormats(t *testing.T) {
	for _, format := range []string{"rounds", "timeline", "csv", "json"} {
		if err := run([]string{"-topo", "cycle", "-n", "6", "-source", "0", "-format", format}); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
	}
}

// TestRunGraphSpec drives the -graph/-seed/-list parity flags.
func TestRunGraphSpec(t *testing.T) {
	cases := [][]string{
		{"-graph", "grid:rows=3,cols=4", "-source", "5"},
		{"-graph", "petersen", "-source", "3", "-format", "timeline"},
		{"-graph", "gnp:n=20,p=0.2,connect=true", "-seed", "7"},
		{"-list"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunGraphSpecErrors(t *testing.T) {
	cases := [][]string{
		{"-graph", "nosuchfamily"},
		{"-graph", "grid:depth=4"},
		{"-graph", "cycle:n=8", "-topo", "cycle"}, // -graph + -topo conflict
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestListOutput pins -list byte for byte. testdata/list.golden is
// `go run ./cmd/afviz -list`; regenerate it that way when a graph family
// changes on purpose.
func TestListOutput(t *testing.T) {
	var buf strings.Builder
	if err := printRegistries(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("-list output drifted from testdata/list.golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestRunSVGFrames(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-topo", "cycle", "-n", "3", "-source", "1", "-format", "svg", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	frames, err := filepath.Glob(filepath.Join(dir, "round*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("wrote %d frames, want 3 (Figure 2 has 3 rounds)", len(frames))
	}
}

func TestRunDOTFrames(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-topo", "path", "-n", "4", "-source", "1", "-format", "dot", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	frames, err := filepath.Glob(filepath.Join(dir, "round*.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("wrote %d frames, want 2 (Figure 1 has 2 rounds)", len(frames))
	}
	data, err := os.ReadFile(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty DOT frame")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-topo", "path", "-n", "4", "-format", "nosuch"},
		{"-topo", "path", "-n", "4", "-source", "9"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
