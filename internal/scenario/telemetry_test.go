package scenario_test

// Telemetry gate tests: the observability subsystem's hard constraint is
// that instrumentation is read-only with respect to simulation state. The
// two differential gates here prove it — a metrics-on suite produces
// byte-identical rows to a metrics-off suite (under chaos, retries, and
// watchdog timeouts, so every counter fires), and an obs-feeding round
// observer leaves traces byte-identical across every engine kind. CI runs
// this package under the race detector, so the lock-free metric updates are
// exercised concurrently while the gates compare.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/sim"
)

// sortedJSONL decodes sink-order JSONL, order-normalises it, zeroes the
// execution bookkeeping, and re-renders — the canonical comparison form for
// rows that travelled through a sink.
func sortedJSONL(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rows []scenario.Result
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var res scenario.Result
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res)
	}
	scenario.SortResults(rows)
	return toJSONL(t, rows)
}

// TestTelemetryDoesNotPerturbRows is the row half of the differential gate:
// the same suite — with chaos injection, retries, and a watchdog-killed
// bounce spec, so attempts, retries, backoff sleeps, timeouts, recovered
// panics, chaos faults, and every row class all fire — run once without and
// once with a Telemetry attached, must produce byte-identical normalised
// rows both as returned results and through a JSONL sink.
func TestTelemetryDoesNotPerturbRows(t *testing.T) {
	matrix := scenario.Matrix{
		Graphs:    []string{"grid:rows=4,cols=4", "cycle:n=9"},
		Protocols: []string{"amnesiac", "classic"},
		Engines:   []string{"sequential", "fast"},
		Analyses:  []string{"coverage"},
		Seeds:     []int64{1, 2},
	}
	specs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// A watchdog-killed run and a deterministic error row (an origin outside
	// the graph — unlike a panic row, its message carries no stack, so it is
	// byte-stable across runs), covering the timeout and error row classes.
	specs = append(specs,
		scenario.Spec{Graph: "path:n=6", Protocol: "bounce", Engine: "sequential", Seed: 1, Timeout: 30 * time.Millisecond},
		scenario.Spec{Graph: "path:n=6", Protocol: "amnesiac", Engine: "sequential", Seed: 1, Origins: []graph.NodeID{99}},
	)
	ctx := context.Background()
	run := func(tel *scenario.Telemetry) ([]scenario.Result, []byte) {
		inj, err := chaos.Parse("chaos:rate=0.25,kinds=err|panic,seed=7")
		if err != nil {
			t.Fatal(err)
		}
		var sinkBuf bytes.Buffer
		results, err := (&scenario.Runner{
			Workers:    4,
			Retries:    8,
			Backoff:    time.Millisecond,
			RunTimeout: 5 * time.Second,
			Chaos:      inj,
			Metrics:    tel,
			Sink:       scenario.NewJSONLSink(&sinkBuf),
		}).Run(ctx, specs)
		if err != nil {
			t.Fatal(err)
		}
		return results, sinkBuf.Bytes()
	}

	plain, plainSink := run(nil)
	tel := scenario.NewTelemetry(obs.NewRegistry())
	metered, meteredSink := run(tel)

	if got, want := toJSONL(t, metered), toJSONL(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("metrics-on rows diverged from metrics-off rows:\n%s\nvs\n%s", got, want)
	}
	if got, want := sortedJSONL(t, meteredSink), sortedJSONL(t, plainSink); !bytes.Equal(got, want) {
		t.Fatalf("metrics-on sink output diverged from metrics-off sink output:\n%s\nvs\n%s", got, want)
	}

	// The gate proves nothing if the counters never fired: every resilience
	// path must have been exercised by the run above.
	sum := tel.Summary()
	if sum.Rows != uint64(len(specs)) {
		t.Fatalf("rows counter = %d, want %d", sum.Rows, len(specs))
	}
	if sum.Attempts < sum.Rows {
		t.Fatalf("attempts (%d) < rows (%d)", sum.Attempts, sum.Rows)
	}
	if sum.Retries == 0 || sum.BackoffSleeps == 0 {
		t.Fatalf("chaos suite recorded no retries (%d) or sleeps (%d)", sum.Retries, sum.BackoffSleeps)
	}
	if sum.Timeouts == 0 {
		t.Fatal("bounce spec recorded no watchdog timeout")
	}
	if sum.Panics == 0 {
		t.Fatal("chaos panic kind recorded no recovered panic")
	}
	if sum.ChaosFaults == 0 {
		t.Fatal("injector fired no recorded fault")
	}
	for _, phase := range []string{"build", "run", "analyze", "sink"} {
		if _, ok := sum.PhaseSeconds[phase]; !ok {
			t.Fatalf("phase %q missing from summary %v", phase, sum.PhaseSeconds)
		}
	}
	t.Logf("telemetry summary: %+v", sum)
}

// TestObserverMetricsDoNotPerturbTraces is the trace half of the gate:
// attaching a round observer that streams every round into obs metrics must
// leave the recorded trace (and the whole result) byte-identical to an
// unobserved traced run, for every engine kind.
func TestObserverMetricsDoNotPerturbTraces(t *testing.T) {
	g, err := gen.Build("grid:rows=5,cols=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sim.EngineKind{sim.Sequential, sim.Channels, sim.Fast, sim.Bitset} {
		opts := []sim.Option{
			sim.WithProtocol("amnesiac"),
			sim.WithEngine(kind),
			sim.WithTrace(true),
			sim.WithOrigins(0),
		}
		runOnce := func(extra ...sim.Option) engine.Result {
			sess, err := sim.New(g, append(append([]sim.Option(nil), opts...), extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			res.WallTime, res.Phases = 0, engine.PhaseTimings{}
			return res
		}

		plain := runOnce()
		reg := obs.NewRegistry()
		rounds := reg.Counter("test_rounds_total", "")
		msgs := reg.Counter("test_messages_total", "")
		fanout := reg.Histogram("test_round_sends", "", obs.LinearBuckets(1, 4, 8))
		observed := runOnce(sim.WithObserver(engine.ObserverFunc(func(rec engine.RoundRecord) (bool, error) {
			rounds.Inc()
			msgs.Add(uint64(len(rec.Sends)))
			fanout.Observe(float64(len(rec.Sends)))
			return false, nil
		})))

		plainJSON, _ := json.Marshal(plain)
		observedJSON, _ := json.Marshal(observed)
		if !bytes.Equal(plainJSON, observedJSON) {
			t.Fatalf("%v: observed run diverged from plain run:\n%s\nvs\n%s", kind, observedJSON, plainJSON)
		}
		if len(plain.Trace) == 0 {
			t.Fatalf("%v: traced run recorded no rounds", kind)
		}
		snap := reg.Snapshot()
		if got, _ := snap.Value("test_rounds_total"); int(got) != observed.Rounds {
			t.Fatalf("%v: observer counted %v rounds, result says %d", kind, got, observed.Rounds)
		}
		if got, _ := snap.Value("test_messages_total"); int(got) != observed.TotalMessages {
			t.Fatalf("%v: observer counted %v messages, result says %d", kind, got, observed.TotalMessages)
		}
	}
}
