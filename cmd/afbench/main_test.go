package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-only", "E1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSubsetWithSeed(t *testing.T) {
	if err := run([]string{"-only", "e2,E3", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nosuchflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunJSON(t *testing.T) {
	if err := run([]string{"-only", "E1,E2", "-json"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSuiteJSONL drives the acceptance matrix shape (3 families × 2
// protocols × 2 engines) through the JSONL sink — the same invocation as
// `make suite` — and checks every emitted row carries the exact graph spec.
func TestRunSuiteJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "suite.jsonl")
	args := []string{"-suite",
		"-graphs", "grid:rows=3,cols=4;cycle:n=9;prefattach:n=16,m=2",
		"-protocols", "amnesiac,classic",
		"-engines", "sequential,fast",
		"-seeds", "1,2",
		"-workers", "8",
		"-format", "jsonl",
		"-out", out,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wantGraphs := map[string]bool{"grid:rows=3,cols=4": true, "cycle:n=9": true, "prefattach:n=16,m=2": true}
	rows := 0
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		rows++
		var row struct {
			Spec struct {
				Graph    string `json:"graph"`
				Protocol string `json:"protocol"`
				Engine   string `json:"engine"`
			} `json:"spec"`
			Rounds     int  `json:"rounds"`
			Terminated bool `json:"terminated"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", scanner.Text(), err)
		}
		if !wantGraphs[row.Spec.Graph] {
			t.Errorf("row has graph %q, not a requested spec", row.Spec.Graph)
		}
		if !row.Terminated || row.Rounds == 0 {
			t.Errorf("row did not terminate: %s", scanner.Text())
		}
	}
	if want := 3 * 2 * 2 * 2; rows != want {
		t.Fatalf("suite emitted %d rows, want %d", rows, want)
	}
}

// TestRunSuiteModelAxis drives the execution-model dimension: sync,
// adversaries, and schedules (loss and crashes among them) over the same
// graphs, and checks the certified rows.
func TestRunSuiteModelAxis(t *testing.T) {
	out := filepath.Join(t.TempDir(), "models.jsonl")
	args := []string{"-suite",
		"-graphs", "cycle:n=9;path:n=6",
		"-models", "sync;adversary:collision;adversary:uniform;schedule:alternating;schedule:loss:p=0.1;schedule:crash:nodes=1,round=2",
		"-maxrounds", "4096",
		"-format", "jsonl",
		"-out", out,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, certified := 0, 0
	models := map[string]bool{}
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		rows++
		var row struct {
			Spec struct {
				Graph string `json:"graph"`
				Model string `json:"model"`
			} `json:"spec"`
			Outcome     string `json:"outcome"`
			CycleLength int    `json:"cycleLength"`
			Err         string `json:"err"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", scanner.Text(), err)
		}
		if row.Err != "" {
			t.Errorf("row failed: %s", scanner.Text())
		}
		models[row.Spec.Model] = true
		if row.Outcome == "non-termination-certified" {
			certified++
			if row.CycleLength == 0 {
				t.Errorf("certified row without a cycle length: %s", scanner.Text())
			}
		}
	}
	if want := 2 * 6; rows != want {
		t.Fatalf("suite emitted %d rows, want %d", rows, want)
	}
	for _, want := range []string{"sync", "adversary:collision", "adversary:uniform", "schedule:alternating",
		"schedule:loss:p=0.1", "schedule:crash:nodes=1,round=2"} {
		if !models[want] {
			t.Errorf("no row ran under model %q (have %v)", want, models)
		}
	}
	// The collision delayer certifies non-termination on the odd cycle.
	if certified == 0 {
		t.Error("no row produced a non-termination certificate")
	}
}

func TestRunSuiteTableAndCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "suite.csv")
	if err := run([]string{"-suite", "-graphs", "path:n=6", "-format", "csv", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "graph,protocol,engine") {
		t.Fatalf("CSV output = %q", data)
	}
	if err := run([]string{"-suite", "-graphs", "path:n=6;cycle:n=7", "-format", "table",
		"-out", filepath.Join(t.TempDir(), "suite.txt")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSuiteErrors(t *testing.T) {
	cases := [][]string{
		{"-suite"},                          // no graphs
		{"-suite", "-graphs", "nosuch:n=4"}, // unknown family
		{"-suite", "-graphs", "path:n=6", "-engines", "warp"},         // unknown engine
		{"-suite", "-graphs", "path:n=6", "-format", "xml"},           // unknown format
		{"-suite", "-graphs", "path:n=6", "-seeds", "one"},            // bad seed
		{"-suite", "-graphs", "path:n=6", "-origins", "a"},            // bad origin
		{"-suite", "-graphs", "path:n=6", "-origins", "99"},           // origin outside graph (run fails)
		{"-suite", "-graphs", "path:n=6", "-protocols", "zzz"},        // unknown protocol
		{"-suite", "-graphs", "path:n=6", "-models", "warp"},          // unknown model kind
		{"-suite", "-graphs", "path:n=6", "-models", "adversary:zzz"}, // unknown adversary family
		{"-suite", "-graphs", "path:n=6", "-models", "schedule:zzz"},  // unknown schedule family
		{"-suite", "-graphs", "path:n=6", "-schedules", "static"},     // retired shorthand: use -models
		// classic × adversary cells fail at run time (model needs amnesiac).
		{"-suite", "-graphs", "path:n=6", "-protocols", "classic", "-models", "adversary:sync"},
		// So do cells whose model names a node or a link the graph lacks.
		{"-suite", "-graphs", "path:n=6", "-models", "schedule:crash:nodes=9,round=1"},
		{"-suite", "-graphs", "path:n=6", "-models", "schedule:outage:u=0,v=2"},
		{"-suite", "-graphs", "path:n=6", "-engines", "parallel"},   // retired engine
		{"-suite", "-graphs", "path:n=6", "-engine", "fast"},        // experiment-mode flag in suite mode
		{"-suite", "-graphs", "path:n=6", "-seed", "3"},             // -seed typo for -seeds
		{"-suite", "-graphs", "path:n=6", "-json"},                  // -json typo for -format
		{"-suite", "-graphs", "path:n=6", "-chaos", "chaos:rate=2"}, // rate outside [0,1]
		{"-suite", "-graphs", "path:n=6", "-chaos", "burn:rate=1"},  // wrong spec family
		{"-suite", "-graphs", "path:n=6", "-resume"},                // -resume without -checkpoint
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunSuiteChaosRetries is the CLI face of the differential chaos gate:
// the same matrix run clean and under heavy injection with retries produces
// identical JSONL up to wall time and attempt counts.
func TestRunSuiteChaosRetries(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	chaotic := filepath.Join(dir, "chaos.jsonl")
	matrix := []string{"-suite",
		"-graphs", "grid:rows=3,cols=4;cycle:n=9",
		"-protocols", "amnesiac,classic",
		"-engines", "sequential,fast",
		"-seeds", "1,2",
		"-format", "jsonl",
	}
	if err := run(append(matrix, "-out", clean)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(matrix,
		"-chaos", "chaos:rate=0.25,kinds=err|panic|stall,seed=11,stall=5ms",
		"-retries", "8", "-backoff", "1ms", "-timeout", "30s",
		"-out", chaotic)); err != nil {
		t.Fatal(err)
	}
	if a, b := normalizeJSONL(t, clean), normalizeJSONL(t, chaotic); a != b {
		t.Fatalf("chaotic suite diverged from the clean one:\n%s\nvs\n%s", b, a)
	}
}

// TestRunSuiteCheckpointResume: a completed checkpointed run resumed over
// the same matrix reruns nothing and reproduces the same output.
func TestRunSuiteCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	first := filepath.Join(dir, "first.jsonl")
	second := filepath.Join(dir, "second.jsonl")
	matrix := []string{"-suite",
		"-graphs", "path:n=6;cycle:n=7",
		"-protocols", "amnesiac,classic",
		"-seeds", "1,2",
		"-format", "jsonl",
		"-checkpoint", ckpt,
	}
	if err := run(append(matrix, "-out", first)); err != nil {
		t.Fatal(err)
	}
	ckptBefore, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(append(matrix, "-resume", "-out", second)); err != nil {
		t.Fatal(err)
	}
	if a, b := normalizeJSONL(t, first), normalizeJSONL(t, second); a != b {
		t.Fatalf("resumed suite diverged:\n%s\nvs\n%s", b, a)
	}
	// Every spec was journaled, so the resume appended nothing.
	ckptAfter, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(ckptBefore) != string(ckptAfter) {
		t.Fatal("no-op resume rewrote the checkpoint journal")
	}
}

// TestRunSuiteSharded: the same matrix through -shard-workers 1 and 4 — and
// through 4 shard workers under chaos injection with retries — merges
// byte-identical (order-normalised) to the plain in-process run.
func TestRunSuiteSharded(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-suite",
		"-graphs", "grid:rows=3,cols=4;cycle:n=9",
		"-protocols", "amnesiac,classic",
		"-seeds", "1,2",
		"-format", "jsonl",
	}
	base := filepath.Join(dir, "base.jsonl")
	if err := run(append(matrix, "-out", base)); err != nil {
		t.Fatal(err)
	}
	want := normalizeJSONL(t, base)
	for _, n := range []string{"1", "4"} {
		out := filepath.Join(dir, "shard"+n+".jsonl")
		if err := run(append(matrix, "-shard-workers", n, "-out", out)); err != nil {
			t.Fatal(err)
		}
		if got := normalizeJSONL(t, out); got != want {
			t.Errorf("-shard-workers %s diverged from the in-process run:\n%s\nvs\n%s", n, got, want)
		}
	}
	chaotic := filepath.Join(dir, "chaos.jsonl")
	if err := run(append(matrix, "-shard-workers", "4",
		"-chaos", "chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=1ms",
		"-retries", "8", "-backoff", "1ms", "-timeout", "30s",
		"-out", chaotic)); err != nil {
		t.Fatal(err)
	}
	if got := normalizeJSONL(t, chaotic); got != want {
		t.Errorf("chaotic sharded suite diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestRunSuiteGzipOut: a .gz -out path transparently compresses, for both
// the in-process and the sharded paths, and both decompress to the same
// normalised rows.
func TestRunSuiteGzipOut(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-suite", "-graphs", "path:n=6;cycle:n=7", "-seeds", "1,2", "-format", "jsonl"}
	plain := filepath.Join(dir, "suite.jsonl")
	packed := filepath.Join(dir, "suite.jsonl.gz")
	sharded := filepath.Join(dir, "sharded.jsonl.gz")
	if err := run(append(matrix, "-out", plain)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(matrix, "-out", packed)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(matrix, "-shard-workers", "2", "-out", sharded)); err != nil {
		t.Fatal(err)
	}
	want := normalizeJSONL(t, plain)
	if got := normalizeJSONL(t, packed); got != want {
		t.Fatalf("gzip suite output diverged:\n%s\nvs\n%s", got, want)
	}
	if got := normalizeJSONL(t, sharded); got != want {
		t.Fatalf("sharded gzip suite output diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestRunSuiteShardedCheckpointResume: a completed sharded checkpointed run
// resumed over the same matrix replays everything and appends nothing.
func TestRunSuiteShardedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	first := filepath.Join(dir, "first.jsonl")
	second := filepath.Join(dir, "second.jsonl")
	matrix := []string{"-suite",
		"-graphs", "path:n=6;cycle:n=7",
		"-protocols", "amnesiac,classic",
		"-seeds", "1,2",
		"-format", "jsonl",
		"-checkpoint", ckpt,
		"-shard-workers", "2",
	}
	if err := run(append(matrix, "-out", first)); err != nil {
		t.Fatal(err)
	}
	ckptBefore, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(append(matrix, "-resume", "-out", second)); err != nil {
		t.Fatal(err)
	}
	if a, b := normalizeJSONL(t, first), normalizeJSONL(t, second); a != b {
		t.Fatalf("resumed sharded suite diverged:\n%s\nvs\n%s", b, a)
	}
	ckptAfter, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(ckptBefore) != string(ckptAfter) {
		t.Fatal("no-op sharded resume rewrote the checkpoint journal")
	}
}

// normalizeJSONL reads a suite JSONL file (gunzipping .gz paths) and renders
// it order-normalised: rows sorted by spec identity with wall time and
// attempts zeroed.
func normalizeJSONL(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not gzip: %v", path, err)
		}
		defer zr.Close()
		r = zr
	}
	var lines []string
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		var row map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", scanner.Text(), err)
		}
		delete(row, "wallMicros")
		delete(row, "attempts")
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
