package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/sim"
)

// TestListOutput pins -list byte for byte: every registry, each family
// with its typed parameters, defaults and doc. testdata/list.golden is
// `go run ./cmd/afsim -list`; regenerate it that way when a family, a
// parameter or a doc line changes on purpose.
func TestListOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := printRegistries(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-list output drifted from testdata/list.golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRunHappyPaths(t *testing.T) {
	cases := [][]string{
		{"-topo", "cycle", "-n", "6", "-source", "0"},
		{"-topo", "path", "-n", "4", "-source", "1", "-render", "-timeline"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-engine", "channels"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-protocol", "classic"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-json"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-async", "collision"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-async", "sync", "-render"},
		{"-topo", "cycle", "-n", "6", "-source", "0", "-async", "random", "-maxrounds", "256"},
		{"-topo", "cycle", "-n", "6", "-source", "0", "-async", "uniform"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-model", "adversary:collision", "-render"},
		{"-topo", "cycle", "-n", "3", "-source", "1", "-model", "adversary:collision", "-json"},
		{"-topo", "path", "-n", "8", "-model", "adversary:hold:node=3,extra=2"},
		{"-topo", "cycle", "-n", "4", "-source", "0", "-model", "schedule:outage:round=1,u=0,v=3"},
		{"-topo", "path", "-n", "4", "-model", "schedule:blink:u=1,v=2,period=2,phase=1"},
		{"-graph", "grid:rows=4,cols=4", "-model", "schedule:alternating", "-maxrounds", "512"},
		{"-topo", "cycle", "-n", "6", "-source", "0", "-model", "schedule:loss:p=0.05", "-maxrounds", "512"},
		{"-topo", "path", "-n", "5", "-model", "schedule:crash:nodes=2,round=1", "-json"},
		{"-topo", "cycle", "-n", "12", "-origins", "0,3,6"},
		{"-topo", "cycle", "-n", "12", "-origins", "0, 6", "-protocol", "classic"},
		{"-topo", "cycle", "-n", "9", "-source", "2", "-predict"},
		{"-topo", "cycle", "-n", "9", "-source", "2", "-predict", "-model", "sync"}, // explicit sync ok
		{"-topo", "path", "-n", "4", "-source", "1", "-timeline", "-model", "sync"},
		{"-topo", "grid", "-n", "4", "-source", "5", "-predict"},
		{"-topo", "path", "-n", "4", "-origins", "0,1", "-predict"}, // origin sets are predicted too
		{"-graph", "grid:rows=4,cols=5", "-protocol", "amnesiac", "-analyze", "bipartite", "-engine", "fast"},
		{"-graph", "petersen", "-source", "3", "-render"},
		{"-graph", "gnp:n=30,p=0.2,connect=true", "-seed", "7"},
		{"-graph", "prefattach:n=40,m=2", "-protocol", "amnesiac", "-analyze", "spantree", "-engine", "fast"},
		{"-graph", "cycle:n=9", "-analyze", "coverage,termination,bipartite,spantree,echo"},
		{"-graph", "grid:rows=3,cols=4", "-analyze", "quantiles:metric=messages,coverage", "-json"},
		{"-graph", "grid:rows=3,cols=4", "-analyze", "quantiles:metric=messages;coverage"},
		{"-topo", "cycle", "-n", "6", "-analyze", "termination", "-model", "schedule:static"},
		{"-topo", "torus:rows=3,cols=5"}, // full spec via -topo
		{"-list"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                  // no topology
		{"-topo", "nosuch"}, // unknown topology
		{"-topo", "path", "-n", "4", "-source", "9"},                                     // bad source
		{"-topo", "path", "-n", "4", "-protocol", "x"},                                   // bad protocol
		{"-topo", "path", "-n", "4", "-engine", "x"},                                     // bad engine
		{"-topo", "path", "-n", "4", "-async", "x"},                                      // bad adversary
		{"-topo", "path", "-n", "4", "-model", "adversary:nosuch"},                       // unknown model family
		{"-topo", "path", "-n", "4", "-model", "warp"},                                   // unknown model kind
		{"-topo", "path", "-n", "4", "-model", "adversary:hold:extra=x"},                 // malformed model param
		{"-topo", "path", "-n", "4", "-model", "schedule:loss:p=1.5"},                    // loss is a probability
		{"-topo", "path", "-n", "4", "-protocol", "faulty"},                              // loss is a model now
		{"-topo", "path", "-n", "4", "-param", "loss=0.05"},                              // no protocol parameters
		{"-topo", "path", "-n", "4", "-model", "adversary:sync", "-async", "sync"},       // both flags
		{"-topo", "path", "-n", "4", "-model", "adversary:sync", "-protocol", "classic"}, // model needs amnesiac
		{"-topo", "path", "-n", "4", "-model", "schedule:static", "-timeline"},           // timeline needs sync
		{"-topo", "path", "-n", "4", "-model", "adversary:sync", "-predict"},             // predict needs sync
		{"-topo", "path", "-n", "4", "-origins", "0,9"},                                  // origin out of range
		{"-topo", "path", "-n", "4", "-origins", "a"},                                    // unparseable origin
		{"-topo", "path", "-n", "4", "-origins", ","},                                    // empty origin list
		{"-topo", "path", "-n", "4", "-protocol", "classic", "-predict"},
		{"-topo", "path", "-n", "4", "-analyze", "nosuch"},                      // unknown analysis
		{"-topo", "path", "-n", "4", "-analyze", "quantiles:metric=bogus"},      // bad analysis param
		{"-topo", "path", "-n", "4", "-origins", "0,3", "-analyze", "spantree"}, // single-origin analysis
		{"-graph", "nosuchfamily"},                                              // unknown family
		{"-graph", "grid:depth=4"},                                              // undeclared parameter
		{"-graph", "grid:rows=four"},                                            // malformed value
		{"-graph", "cycle:n=2"},                                                 // out-of-range value
		{"-graph", "cycle:n=8", "-topo", "cycle"},                               // -graph + -topo conflict
		{"-graph", "cycle:n=8", "-file", "nosuch.txt"},                          // -graph + -file conflict
		{"-graph", "petersen", "-source", "10"},                                 // origin outside graph

		// Models naming a node or a link the graph lacks.
		{"-topo", "cycle", "-n", "4", "-model", "schedule:crash:nodes=7,round=1"},
		{"-topo", "cycle", "-n", "4", "-model", "adversary:hold:node=9"},
		{"-topo", "cycle", "-n", "4", "-model", "schedule:outage:round=1,u=4294967296,v=3"},
		{"-topo", "cycle", "-n", "4", "-model", "schedule:outage:round=1,u=0,v=2"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestEveryProtocolOnEveryEngine drives the full registry × engine matrix
// through the CLI — the acceptance criterion that no per-protocol switch
// remains: every registered protocol name must work with every engine. The
// one documented exception is the bitset engine, which runs only set-rule
// protocols and must reject the rest up front with its typed error.
func TestEveryProtocolOnEveryEngine(t *testing.T) {
	for _, protocol := range sim.Protocols.Names() {
		for _, engineName := range sim.EngineNames() {
			args := []string{"-topo", "petersen", "-source", "0", "-protocol", protocol, "-engine", engineName}
			err := run(args)
			if err != nil && engineName == sim.Bitset.String() && errors.Is(err, bitengine.ErrUnsupportedProtocol) {
				continue
			}
			if err != nil {
				t.Errorf("run(%v): %v", args, err)
			}
		}
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 4\n0 1\n1 2\n2 3\n3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-source", "2", "-render"}); err != nil {
		t.Fatal(err)
	}
}

// runOutput runs the CLI with args and returns what it printed.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		printed <- out
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return string(out)
}

// TestUntracedAnalysisRunsToTheEnd: afsim records a trace only for the
// outputs that print one, and an untraced run must still flood to the
// natural end instead of stopping where every analysis is ready: the
// bipartite analysis has its first witness on C9 well before the flood
// dies in round 9.
func TestUntracedAnalysisRunsToTheEnd(t *testing.T) {
	for _, engineName := range sim.EngineNames() {
		out := runOutput(t, "-graph", "cycle:n=9", "-analyze", "bipartite", "-engine", engineName)
		if !strings.Contains(out, " rounds=9 messages=18 ") {
			t.Errorf("-engine %s: want rounds=9 messages=18, got:\n%s", engineName, out)
		}
	}
}

// TestGraphLineDescribesTheOriginSet: the summary's graph line is the
// prediction for every origin, not for the first one alone. On path:n=9
// the set {0, 8} ends in 4 rounds, where origin 0 alone would take 8.
func TestGraphLineDescribesTheOriginSet(t *testing.T) {
	for _, tc := range []struct {
		origins string
		want    []string
	}{
		{"0,8", []string{" rounds=4 ", "graph: eccentricity(origins)=4 same-colour-class=true amnesiac-rounds(origins)=4 "}},
		{"0,5", []string{" rounds=8 ", "graph: eccentricity(origins)=3 same-colour-class=false amnesiac-rounds(origins)=8 "}},
		{"0", []string{" rounds=8 ", "graph: eccentricity(source)=8 bipartite=true amnesiac-rounds(source)=8 "}},
	} {
		out := runOutput(t, "-graph", "path:n=9", "-origins", tc.origins, "-analyze", "termination")
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("-origins %s: want %q in:\n%s", tc.origins, want, out)
			}
		}
	}
}
