package scenario_test

// Resilience tests: the failure semantics of the Runner — watchdog
// timeouts, retry with backoff, panic isolation, resumable checkpoints —
// and the differential chaos gate proving that a suite under injected
// faults plus retries converges on the fault-free results.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/sim"
)

// Test-only protocols, registered once for the whole test binary:
// panicproto crashes the moment its first automaton is built, bounce echoes
// every message back to its sender forever (the shape of a run that needs
// the watchdog).
func init() {
	sim.Register("panicproto", func(spec sim.Spec) (engine.Protocol, error) {
		return panicProto{origin: spec.Origins[0], g: spec.Graph}, nil
	})
	sim.Register("bounce", func(spec sim.Spec) (engine.Protocol, error) {
		return bounceProto{origin: spec.Origins[0], g: spec.Graph}, nil
	})
}

type panicProto struct {
	origin graph.NodeID
	g      *graph.Graph
}

func (p panicProto) Name() string { return "panicproto" }
func (p panicProto) Bootstrap() []engine.Send {
	sends := make([]engine.Send, 0, p.g.Degree(p.origin))
	for _, v := range p.g.Neighbors(p.origin) {
		sends = append(sends, engine.Send{From: p.origin, To: v})
	}
	return sends
}
func (p panicProto) NewNode(v graph.NodeID) engine.NodeAutomaton {
	panic(fmt.Sprintf("panicproto: node %d refuses to exist", v))
}

type bounceProto struct {
	origin graph.NodeID
	g      *graph.Graph
}

func (p bounceProto) Name() string { return "bounce" }
func (p bounceProto) Bootstrap() []engine.Send {
	n := p.g.Neighbors(p.origin)
	if len(n) == 0 {
		return nil
	}
	return []engine.Send{{From: p.origin, To: n[0]}}
}
func (p bounceProto) NewNode(v graph.NodeID) engine.NodeAutomaton {
	return func(round int, senders []graph.NodeID) []graph.NodeID {
		return append([]graph.NodeID(nil), senders...) // echo forever
	}
}

// normalizeResilient zeroes the two nondeterministic execution-bookkeeping
// fields (wall time and attempts) for order-normalised comparison.
func normalizeResilient(results []scenario.Result) []scenario.Result {
	out := append([]scenario.Result(nil), results...)
	for i := range out {
		out[i].WallMicros = 0
		out[i].Attempts = 0
	}
	return out
}

// toJSONL renders results as sorted JSONL — the byte-identity form the
// checkpoint acceptance criterion compares.
func toJSONL(t *testing.T, results []scenario.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, res := range normalizeResilient(results) {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPanicIsolation: a crashing protocol degrades to per-spec error rows
// carrying the panic value and a trimmed stack; the rest of the suite keeps
// draining and the process survives (this test finishing is the proof).
func TestPanicIsolation(t *testing.T) {
	specs := []scenario.Spec{
		{Graph: "path:n=6", Protocol: "panicproto", Engine: "sequential", Seed: 1},
		{Graph: "path:n=6", Protocol: "amnesiac", Engine: "sequential", Seed: 1},
		{Graph: "cycle:n=7", Protocol: "panicproto", Engine: "fast", Seed: 1},
		{Graph: "cycle:n=7", Protocol: "amnesiac", Engine: "parallel", Seed: 1},
	}
	results, err := (&scenario.Runner{Workers: 4}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	var panicked, clean int
	for _, res := range results {
		if res.Spec.Protocol == "panicproto" {
			panicked++
			if !strings.Contains(res.Err, "panic: panicproto") {
				t.Errorf("panic row lacks the panic value: %q", res.Err)
			}
			if !strings.Contains(res.Err, "goroutine") {
				t.Errorf("panic row lacks a stack: %q", res.Err)
			}
			if res.Attempts != 1 {
				t.Errorf("panic row ran %d attempts without retries configured", res.Attempts)
			}
			continue
		}
		clean++
		if res.Err != "" || !res.Terminated {
			t.Errorf("healthy spec %s failed: %q", res.Spec.ID(), res.Err)
		}
	}
	if panicked != 2 || clean != 2 {
		t.Fatalf("panicked=%d clean=%d, want 2/2", panicked, clean)
	}
}

// TestPanicRetryAttempts: panics are transient-class, so a deterministic
// panic consumes the whole attempt budget before degrading to an error row.
func TestPanicRetryAttempts(t *testing.T) {
	specs := []scenario.Spec{{Graph: "path:n=4", Protocol: "panicproto", Engine: "sequential", Seed: 1}}
	runner := &scenario.Runner{Workers: 1, Retries: 2, Backoff: time.Millisecond}
	results, err := runner.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == "" {
		t.Fatalf("want one error row, got %+v", results)
	}
	if results[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (retries 2 + 1)", results[0].Attempts)
	}
}

// TestWatchdogTimeout: a run that never terminates becomes an
// Outcome "timeout" row instead of a hung worker — under both the
// runner-wide deadline and the per-spec override.
func TestWatchdogTimeout(t *testing.T) {
	huge := 1 << 30 // keep the round-limit far beyond the watchdog
	specs := []scenario.Spec{
		{Graph: "path:n=4", Protocol: "bounce", Engine: "sequential", Seed: 1, MaxRounds: huge},
		{Graph: "path:n=4", Protocol: "amnesiac", Engine: "sequential", Seed: 1},
	}
	runner := &scenario.Runner{Workers: 2, RunTimeout: 30 * time.Millisecond}
	start := time.Now()
	results, err := runner.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("suite took %v; the watchdog did not fire", elapsed)
	}
	byProto := map[string]scenario.Result{}
	for _, res := range results {
		byProto[res.Spec.Protocol] = res
	}
	bounced := byProto["bounce"]
	if bounced.Outcome != "timeout" || !strings.Contains(bounced.Err, "timed out") {
		t.Errorf("bounce row = outcome %q err %q, want a timeout row", bounced.Outcome, bounced.Err)
	}
	if bounced.Attempts != 1 {
		t.Errorf("bounce attempts = %d, want 1", bounced.Attempts)
	}
	if clean := byProto["amnesiac"]; clean.Err != "" || !clean.Terminated {
		t.Errorf("fast spec suffered from the slow one: %+v", clean)
	}

	// Per-spec override: no runner-wide deadline, one spec opts in.
	specs[0].Timeout = 30 * time.Millisecond
	results, err = (&scenario.Runner{Workers: 2}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Spec.Protocol == "bounce" && res.Outcome != "timeout" {
			t.Errorf("per-spec timeout did not fire: %+v", res)
		}
	}
}

// TestSpecIDTimeoutSuffix: the watchdog override distinguishes spec IDs
// without disturbing the untimed form.
func TestSpecIDTimeoutSuffix(t *testing.T) {
	plain := scenario.Spec{Graph: "path:n=4"}
	timed := scenario.Spec{Graph: "path:n=4", Timeout: 50 * time.Millisecond}
	if strings.Contains(plain.ID(), "|to=") {
		t.Errorf("untimed ID %q grew a timeout field", plain.ID())
	}
	if !strings.HasSuffix(timed.ID(), "|to=50ms") {
		t.Errorf("timed ID %q lacks the override suffix", timed.ID())
	}
	if plain.ID() == timed.ID() {
		t.Error("timeout override does not distinguish spec IDs")
	}
}

// TestChaosDifferential is the differential chaos gate: a suite under
// >= 10% injected faults (err/panic/stall mix at the run and build sites)
// plus retries yields order-normalised results identical to the fault-free
// suite.
func TestChaosDifferential(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs:    []string{"grid:rows=4,cols=5", "cycle:n=9", "prefattach:n=24,m=2"},
		Protocols: []string{"amnesiac", "classic"},
		Engines:   []string{"sequential", "parallel"},
		Analyses:  []string{"coverage"},
		Seeds:     []int64{1, 2},
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	clean, err := (&scenario.Runner{Workers: 4}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.Parse("chaos:rate=0.25,kinds=err|panic|stall,seed=11,stall=5ms")
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := (&scenario.Runner{
		Workers:    4,
		Retries:    8,
		Backoff:    time.Millisecond,
		RunTimeout: 5 * time.Second,
		Chaos:      inj,
	}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, _ := json.Marshal(normalizeResilient(clean))
	chaoticJSON, _ := json.Marshal(normalizeResilient(chaotic))
	if !bytes.Equal(cleanJSON, chaoticJSON) {
		t.Fatalf("faulted suite diverged from the fault-free suite:\n%s\nvs\n%s", chaoticJSON, cleanJSON)
	}
	for _, res := range chaotic {
		if res.Err != "" {
			t.Errorf("retries failed to absorb the faults of %s: %s", res.Spec.ID(), res.Err)
		}
	}
	retried := 0
	for _, res := range chaotic {
		if res.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no run was retried — the injector never fired, so the gate proved nothing")
	}
	t.Logf("chaos gate: %d/%d runs retried and converged", retried, len(chaotic))
}

// cancelSink cancels a context after writing k rows, modelling a sweep
// killed mid-flight, and records everything it saw.
type cancelSink struct {
	mu     sync.Mutex
	after  int
	cancel context.CancelFunc
	rows   []scenario.Result
}

func (c *cancelSink) Write(res scenario.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, res)
	if len(c.rows) == c.after {
		c.cancel()
	}
	return nil
}

func (c *cancelSink) seen() []scenario.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]scenario.Result(nil), c.rows...)
}

// TestCancellationAndResume is the checkpoint acceptance criterion: a suite
// killed mid-run journals its completed rows; resuming from the checkpoint
// replays only the remainder, and the merged JSONL is byte-identical to an
// uninterrupted run — across worker counts 1, 4, and 8. Along the way it
// asserts the kill-path invariants: partial results stay sorted and the
// sink saw exactly the returned rows.
func TestCancellationAndResume(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs:    []string{"grid:rows=4,cols=5", "cycle:n=9", "path:n=12"},
		Protocols: []string{"amnesiac", "classic"},
		Engines:   []string{"sequential", "fast"},
		Seeds:     []int64{1, 2},
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&scenario.Runner{Workers: 4}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	fullJSONL := toJSONL(t, full)

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
			m, err := scenario.OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelSink{after: 5, cancel: cancel}
			partial, err := (&scenario.Runner{Workers: workers, Sink: sink}).Resume(ctx, m, specs)
			if err == nil {
				t.Fatal("cancelled sweep returned no error")
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			// Partial results stay order-normalised even on the error path.
			for i := 1; i < len(partial); i++ {
				if partial[i-1].Spec.ID() > partial[i].Spec.ID() {
					t.Fatalf("partial results unsorted at %d", i)
				}
			}
			// The sink saw exactly the returned rows (order aside).
			seen := seenByID(sink.seen())
			if len(seen) != len(partial) {
				t.Fatalf("sink saw %d rows, runner returned %d", len(seen), len(partial))
			}
			for _, res := range partial {
				if _, ok := seen[res.Spec.ID()]; !ok {
					t.Fatalf("returned row %s never reached the sink", res.Spec.ID())
				}
			}

			// Resume from the journal: only the remainder replays.
			m2, err := scenario.OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			journaled := m2.Len()
			if journaled == 0 || journaled >= len(specs) {
				t.Fatalf("checkpoint journals %d of %d rows; the kill was not mid-suite", journaled, len(specs))
			}
			merged, err := (&scenario.Runner{Workers: workers}).Resume(context.Background(), m2, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(toJSONL(t, merged), fullJSONL) {
				t.Fatal("merged resume JSONL differs from the uninterrupted run")
			}
			// The journal now holds the whole suite; a second resume runs
			// nothing and still reproduces the merged output.
			m3, err := scenario.OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m3.Close()
			if m3.Len() != len(specs) {
				t.Fatalf("journal holds %d rows after resume, want %d", m3.Len(), len(specs))
			}
			again, err := (&scenario.Runner{Workers: workers}).Resume(context.Background(), m3, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(toJSONL(t, again), fullJSONL) {
				t.Fatal("no-op resume JSONL differs from the uninterrupted run")
			}
		})
	}
}

func seenByID(rows []scenario.Result) map[string]scenario.Result {
	out := make(map[string]scenario.Result, len(rows))
	for _, res := range rows {
		out[res.Spec.ID()] = res
	}
	return out
}

// TestManifestTornTail: a kill mid-write leaves a truncated final line; the
// manifest drops it on open and stays appendable.
func TestManifestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	m, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []scenario.Result{
		{Spec: scenario.Spec{Graph: "path:n=4", Seed: 1}, N: 4, M: 3, Rounds: 3},
		{Spec: scenario.Spec{Graph: "path:n=5", Seed: 1}, N: 5, M: 4, Rounds: 4},
	}
	for _, res := range rows {
		if err := m.Write(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"spec":{"graph":"cycle`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if m2.Len() != 2 {
		t.Fatalf("recovered %d rows, want 2", m2.Len())
	}
	extra := scenario.Result{Spec: scenario.Spec{Graph: "path:n=6", Seed: 1}, N: 6, M: 5, Rounds: 5}
	if err := m2.Write(extra); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != 3 {
		t.Fatalf("after append-past-torn-tail the journal holds %d rows, want 3", m3.Len())
	}
	// A corrupt interior line is a different file, not a torn tail: refuse.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n{\"spec\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.OpenManifest(bad); err == nil {
		t.Fatal("corrupt interior row accepted")
	}
}

// failingSink fails every write with its label.
type failingSink string

func (f failingSink) Write(scenario.Result) error { return errors.New(string(f)) }

// recordSink retains rows.
type recordSink struct{ rows []scenario.Result }

func (r *recordSink) Write(res scenario.Result) error {
	r.rows = append(r.rows, res)
	return nil
}

// TestMultiSinkAttemptsAll: one broken sink no longer blinds the rest, and
// every failure is reported.
func TestMultiSinkAttemptsAll(t *testing.T) {
	rec := &recordSink{}
	sink := scenario.MultiSink{failingSink("broken-file"), rec, failingSink("full-disk"), nil}
	err := sink.Write(scenario.Result{Spec: scenario.Spec{Graph: "path:n=4"}})
	if err == nil {
		t.Fatal("joined failure lost")
	}
	if !strings.Contains(err.Error(), "broken-file") || !strings.Contains(err.Error(), "full-disk") {
		t.Errorf("joined error %q lacks a member failure", err)
	}
	if len(rec.rows) != 1 {
		t.Fatalf("healthy sink saw %d rows, want 1", len(rec.rows))
	}
}

// TestCSVHeaderOnEmptySuite: an all-skipped suite still emits a valid CSV
// header from Flush.
func TestCSVHeaderOnEmptySuite(t *testing.T) {
	var buf bytes.Buffer
	sink := scenario.NewCSVSink(&buf, "coverage.covered")
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	header := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(header, "graph,protocol,engine") || !strings.HasSuffix(header, "coverage.covered") {
		t.Fatalf("empty-suite CSV = %q, want the header row", header)
	}
}

// TestChaosSinkAndErrorJoin: the chaos sink wrapper surfaces injected write
// failures; the runner reports them even when the suite is also cancelled,
// and sinks beside the broken one still receive the row (satellites: sink
// error masking, MultiSink fan-out).
func TestChaosSinkAndErrorJoin(t *testing.T) {
	specs, err := scenario.Matrix{Graphs: []string{"path:n=4", "path:n=5", "path:n=6"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	agg := scenario.NewAggregate()
	broken := scenario.NewChaosSink(agg, chaos.New(1, []chaos.Kind{chaos.Err}, 1))
	rec := &recordSink{}
	runner := &scenario.Runner{Workers: 1, Sink: scenario.MultiSink{broken, rec}}
	_, err = runner.Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "sink") || !chaos.IsInjected(err) {
		t.Fatalf("err = %v, want an injected sink failure", err)
	}
	if len(rec.rows) == 0 {
		t.Fatal("sibling sink was blinded by the broken one")
	}

	// Cancellation no longer masks a sink failure: both surface.
	ctx, cancel := context.WithCancel(context.Background())
	canceller := &cancelAndFailSink{cancel: cancel}
	_, err = (&scenario.Runner{Workers: 1, Sink: canceller}).Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the context error", err)
	}
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Errorf("err = %v, want the sink error to survive cancellation", err)
	}
}

// cancelAndFailSink cancels the suite and fails the write, producing the
// cancelled-plus-sink-error overlap.
type cancelAndFailSink struct{ cancel context.CancelFunc }

func (c *cancelAndFailSink) Write(scenario.Result) error {
	c.cancel()
	return errors.New("pipe closed")
}

// TestResumeDoesNotRetryDeterministicErrors: error rows (bad origin) are
// journaled like any other and skipped on resume — resume must not burn
// attempts re-deriving deterministic failures.
func TestResumeDeterministicErrorRows(t *testing.T) {
	specs := []scenario.Spec{
		{Graph: "path:n=4", Protocol: "amnesiac", Engine: "sequential", Origins: []graph.NodeID{99}, Seed: 1},
		{Graph: "path:n=4", Protocol: "amnesiac", Engine: "sequential", Seed: 1},
	}
	path := filepath.Join(t.TempDir(), "err.jsonl")
	m, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&scenario.Runner{Workers: 1}).Resume(context.Background(), m, specs)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if len(first) != 2 {
		t.Fatalf("got %d rows", len(first))
	}
	m2, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 2 {
		t.Fatalf("journal holds %d rows, want 2 (error rows are completed rows)", m2.Len())
	}
	again, err := (&scenario.Runner{Workers: 1}).Resume(context.Background(), m2, specs)
	if err != nil {
		t.Fatal(err)
	}
	aJSON, _ := json.Marshal(normalizeResilient(first))
	bJSON, _ := json.Marshal(normalizeResilient(again))
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatal("resumed error rows differ from the original run")
	}
}

// TestRepeatedSpecsRunOnce: a spec whose ID repeats an earlier one is
// dropped (scenario.Distinct, which shard.NewCoordinator applies too), so
// one row serves both. Run drops it under any worker count, and Resume
// drops it whether or not the journal already holds its row.
func TestRepeatedSpecsRunOnce(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs:    []string{"cycle:n=9", "grid:rows=3,cols=4"},
		Protocols: []string{"amnesiac", "classic"},
		Seeds:     []int64{1, 2},
	}
	distinct, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	matrix.Seeds = []int64{1, 2, 1}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) <= len(distinct) {
		t.Fatalf("%d specs repeat none of the %d distinct ones", len(specs), len(distinct))
	}
	if got := scenario.Distinct(specs); len(got) != len(distinct) || got[0].ID() != specs[0].ID() {
		t.Fatalf("Distinct kept %d of %d specs, want the %d distinct ones in first-seen order", len(got), len(specs), len(distinct))
	}
	ctx := context.Background()
	want, err := (&scenario.Runner{Workers: 1}).Run(ctx, distinct)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sink := scenario.NewAggregate()
		got, err := (&scenario.Runner{Workers: workers, Sink: sink}).Run(ctx, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(toJSONL(t, got), toJSONL(t, want)) || len(sink.Results()) != len(distinct) {
			t.Errorf("workers=%d: %d rows returned, %d written, want the %d distinct specs' rows",
				workers, len(got), len(sink.Results()), len(distinct))
		}
	}

	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	m, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&scenario.Runner{Workers: 1}).Resume(ctx, m, specs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := scenario.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := (&scenario.Runner{Workers: 4}).Resume(ctx, m2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(toJSONL(t, got), toJSONL(t, want)) || m2.Len() != len(distinct) {
		t.Errorf("resume: %d rows returned, %d journaled, want the %d distinct specs' rows", len(got), m2.Len(), len(distinct))
	}
}
