package sim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"

	// Self-registering protocols and model families under test.
	_ "amnesiacflood/internal/registry/all"
)

// allEngines lists every synchronous engine. Bitset runs only bitset-rule
// protocols, which covers every test below that uses the default amnesiac
// protocol.
var allEngines = []sim.EngineKind{sim.Sequential, sim.Channels, sim.Fast, sim.Bitset}

func TestProtocolsRegistered(t *testing.T) {
	want := []string{"amnesiac", "classic", "multiflood"}
	if got := sim.Protocols(); !slices.Equal(got, want) {
		t.Errorf("Protocols() = %v, want %v", got, want)
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]sim.EngineKind{
		"sequential": sim.Sequential, "seq": sim.Sequential,
		"channels": sim.Channels, "chan": sim.Channels,
		"fast": sim.Fast, " Fast ": sim.Fast,
		"bitset": sim.Bitset, "bit": sim.Bitset,
	} {
		got, err := sim.ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if got, want := sim.EngineNames(), []string{"sequential", "channels", "fast", "bitset"}; !slices.Equal(got, want) {
		t.Errorf("EngineNames() = %v, want %v", got, want)
	}
	// The retired sharded fast engine's spellings are unknown names now.
	for _, name := range []string{"warp", "parallel", "fastparallel"} {
		if _, err := sim.ParseEngine(name); !errors.Is(err, sim.ErrUnknownEngine) {
			t.Errorf("ParseEngine(%s) err = %v, want ErrUnknownEngine", name, err)
		}
	}
}

func TestUnknownProtocolAndEngineErrors(t *testing.T) {
	g := gen.Cycle(6)
	if _, err := sim.New(g, sim.WithProtocol("nosuch")); !errors.Is(err, sim.ErrUnknownProtocol) {
		t.Errorf("unknown protocol err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := sim.New(g, sim.WithEngine(sim.EngineKind(99))); !errors.Is(err, sim.ErrUnknownEngine) {
		t.Errorf("unknown engine err = %v, want ErrUnknownEngine", err)
	}
	if _, err := sim.New(nil); err == nil {
		t.Error("nil graph accepted")
	}
	// Factory validation propagates: an origin outside the graph.
	if _, err := sim.New(g, sim.WithProtocol("classic"), sim.WithOrigins(0, 6)); !errors.Is(err, core.ErrBadOrigin) {
		t.Errorf("out-of-graph origin err = %v, want core.ErrBadOrigin", err)
	}
	// Message loss is an execution model now (schedule:loss), not a
	// protocol.
	if _, err := sim.New(g, sim.WithProtocol("faulty")); !errors.Is(err, sim.ErrUnknownProtocol) {
		t.Errorf("faulty protocol err = %v, want ErrUnknownProtocol", err)
	}
}

// TestEveryProtocolOnEveryEngine is the registry acceptance matrix: each
// registered protocol must run on every engine that supports it (all but
// bitset run everything) and produce byte-identical traces across them.
func TestEveryProtocolOnEveryEngine(t *testing.T) {
	g := gen.Petersen()
	for _, name := range sim.Protocols() {
		t.Run(name, func(t *testing.T) {
			var want engine.Result
			for i, kind := range allEngines {
				sess, err := sim.New(g,
					sim.WithProtocol(name),
					sim.WithEngine(kind),
					sim.WithOrigins(0),
					sim.WithSeed(7),
					sim.WithTrace(true),
				)
				if kind == sim.Bitset && errors.Is(err, bitengine.ErrUnsupportedProtocol) {
					continue // covered by TestBitsetEngineSupport
				}
				if err != nil {
					t.Fatalf("New(%s, %s): %v", name, kind, err)
				}
				res, err := sess.Run(context.Background())
				if err != nil {
					t.Fatalf("%s on %s: %v", name, kind, err)
				}
				if res.Engine != kind.String() {
					t.Errorf("%s on %s: Engine = %q", name, kind, res.Engine)
				}
				if !res.Terminated {
					t.Errorf("%s on %s: did not terminate", name, kind)
				}
				if i == 0 {
					want = res
					continue
				}
				if !engine.EqualTraces(want.Trace, res.Trace) {
					t.Errorf("%s: %s trace differs from %s", name, kind, allEngines[0])
				}
				if res.Rounds != want.Rounds || res.TotalMessages != want.TotalMessages {
					t.Errorf("%s: %s summary (%d rounds, %d msgs) differs from %s (%d, %d)",
						name, kind, res.Rounds, res.TotalMessages, allEngines[0], want.Rounds, want.TotalMessages)
				}
			}
		})
	}
}

// TestBitsetEngineSupport covers the fifth engine's narrower contract: the
// bitset-rule protocols (amnesiac, classic) run with traces byte-identical
// to the sequential engine;
// protocols with bespoke per-node behaviour are rejected at New, with the
// typed bitengine error.
func TestBitsetEngineSupport(t *testing.T) {
	g := gen.Petersen()
	for _, name := range []string{"amnesiac", "classic"} {
		want := runOn(t, g, name, sim.Sequential)
		got := runOn(t, g, name, sim.Bitset)
		if got.Engine != "bitset" {
			t.Errorf("%s: Engine = %q, want bitset", name, got.Engine)
		}
		if !engine.EqualTraces(want.Trace, got.Trace) {
			t.Errorf("%s: bitset trace differs from sequential", name)
		}
		if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || !got.Terminated {
			t.Errorf("%s: bitset summary (%d rounds, %d msgs, terminated=%t) differs from (%d, %d, true)",
				name, got.Rounds, got.TotalMessages, got.Terminated, want.Rounds, want.TotalMessages)
		}
	}
	for _, name := range []string{"multiflood"} {
		if _, err := sim.New(g, sim.WithProtocol(name), sim.WithEngine(sim.Bitset), sim.WithSeed(7)); !errors.Is(err, bitengine.ErrUnsupportedProtocol) {
			t.Errorf("New(%s, bitset) err = %v, want ErrUnsupportedProtocol", name, err)
		}
	}
}

// runOn is the shared single-run helper of the bitset support test.
func runOn(t *testing.T, g *graph.Graph, proto string, kind sim.EngineKind) engine.Result {
	t.Helper()
	sess, err := sim.New(g,
		sim.WithProtocol(proto),
		sim.WithEngine(kind),
		sim.WithOrigins(0),
		sim.WithSeed(7),
		sim.WithTrace(true),
	)
	if err != nil {
		t.Fatalf("New(%s, %s): %v", proto, kind, err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatalf("%s on %s: %v", proto, kind, err)
	}
	return res
}

func TestSessionReuseIsDeterministic(t *testing.T) {
	g := gen.Grid(8, 8)
	sess, err := sim.New(g, sim.WithEngine(sim.Fast), sim.WithOrigins(5), sim.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !engine.EqualTraces(first.Trace, again.Trace) {
			t.Fatalf("rerun %d on a reused session produced a different trace", i)
		}
	}
	if first.WallTime <= 0 {
		t.Error("WallTime not populated")
	}
}

// runEach runs sess once from each source, through RunFrom.
func runEach(t *testing.T, sess *sim.Session, sources []graph.NodeID) []engine.Result {
	t.Helper()
	results := make([]engine.Result, len(sources))
	for i, src := range sources {
		res, err := sess.RunFrom(context.Background(), []graph.NodeID{src})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return results
}

// TestRunFromMatchesIndividualRuns: one session run from every source in
// turn gives each source the trace of a fresh session built for it.
func TestRunFromMatchesIndividualRuns(t *testing.T) {
	g := gen.Grid(6, 6)
	sources := make([]graph.NodeID, g.N())
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}
	for _, kind := range []sim.EngineKind{sim.Sequential, sim.Fast} {
		sess, err := sim.New(g, sim.WithEngine(kind), sim.WithTrace(true))
		if err != nil {
			t.Fatal(err)
		}
		batch := runEach(t, sess, sources)
		for i, src := range sources {
			solo, err := sim.New(g, sim.WithEngine(sim.Sequential), sim.WithOrigins(src), sim.WithTrace(true))
			if err != nil {
				t.Fatal(err)
			}
			want, err := solo.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !engine.EqualTraces(want.Trace, batch[i].Trace) {
				t.Fatalf("%s: batch run from %d differs from solo run", kind, src)
			}
		}
	}
}

// stopSession runs obs on the given engine over a cycle long enough that
// every run lasts many rounds. Untraced runs give frontier-only observers
// the bitset engine's frontier path.
func stopSession(t *testing.T, kind sim.EngineKind, obs engine.RoundObserver, trace bool) (engine.Result, error) {
	t.Helper()
	g := gen.Cycle(64)
	sess, err := sim.New(g,
		sim.WithEngine(kind),
		sim.WithOrigins(0),
		sim.WithTrace(trace),
		sim.WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Run(context.Background())
}

// TestObserverStopOnAllEngines: a stop after round 3 must end every engine
// cleanly with Stopped set and exactly three rounds observed, traced or not
// (untraced, the bitset engine feeds the budget frontiers).
func TestObserverStopOnAllEngines(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind.String(), func(t *testing.T) {
			for _, trace := range []bool{true, false} {
				res, err := stopSession(t, kind, &sim.RoundBudget{Budget: 3}, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stopped || res.Terminated {
					t.Fatalf("trace=%t: stopped=%t terminated=%t, want true/false", trace, res.Stopped, res.Terminated)
				}
				wantTrace := 0
				if trace {
					wantTrace = 3
				}
				if res.Rounds != 3 || len(res.Trace) != wantTrace {
					t.Fatalf("trace=%t: rounds=%d trace=%d, want 3/%d", trace, res.Rounds, len(res.Trace), wantTrace)
				}
			}
		})
	}
}

// TestObserverErrorOnAllEngines: an observer error must abort every engine
// with the error wrapped — a Send-level observer on a traced run, and a
// frontier observer on an untraced one.
func TestObserverErrorOnAllEngines(t *testing.T) {
	sentinel := errors.New("observer boom")
	for _, kind := range allEngines {
		t.Run(kind.String(), func(t *testing.T) {
			calls := 0
			failSecond := func() (bool, error) {
				calls++
				if calls == 2 {
					return false, sentinel
				}
				return false, nil
			}
			for _, frontier := range []bool{false, true} {
				calls = 0
				var obs engine.RoundObserver = engine.ObserverFunc(func(engine.RoundRecord) (bool, error) { return failSecond() })
				if frontier {
					obs = engine.FrontierFunc(func(engine.Frontier) (bool, error) { return failSecond() })
				}
				_, err := stopSession(t, kind, obs, !frontier)
				if !errors.Is(err, sentinel) {
					t.Fatalf("frontier=%t: err = %v, want wrapped sentinel", frontier, err)
				}
				if calls != 2 {
					t.Fatalf("frontier=%t: observer called %d times after erroring at call 2", frontier, calls)
				}
			}
		})
	}
}

// TestEarlyStopTracesArePrefixes is the differential guarantee: for every
// engine, the trace of a run stopped after k rounds is byte-identical to
// the first k rounds of the full trace.
func TestEarlyStopTracesArePrefixes(t *testing.T) {
	g := gen.Cycle(33) // non-bipartite: long run, messages overlap
	full, err := func() (engine.Result, error) {
		sess, err := sim.New(g, sim.WithOrigins(0), sim.WithTrace(true))
		if err != nil {
			t.Fatal(err)
		}
		return sess.Run(context.Background())
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allEngines {
		for _, k := range []int{1, 2, 5, full.Rounds - 1} {
			sess, err := sim.New(g,
				sim.WithEngine(kind),
				sim.WithOrigins(0),
				sim.WithTrace(true),
				sim.WithObserver(&sim.RoundBudget{Budget: k}),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stopped || res.Rounds != k {
				t.Fatalf("%s budget %d: stopped=%t rounds=%d", kind, k, res.Stopped, res.Rounds)
			}
			if !engine.EqualTraces(res.Trace, full.Trace[:k]) {
				t.Fatalf("%s: stopped trace at k=%d is not a prefix of the full trace", kind, k)
			}
		}
	}
}

// TestCancellationMidRunOnAllEngines: cancelling the context from inside an
// observer — Send-level or frontier-level — must abort every engine at the
// next round boundary with the context's error.
func TestCancellationMidRunOnAllEngines(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind.String(), func(t *testing.T) {
			for _, frontier := range []bool{false, true} {
				g := gen.Cycle(64)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rounds := 0
				cancelSecond := func() (bool, error) {
					rounds++
					if rounds == 2 {
						cancel()
					}
					return false, nil
				}
				var obs engine.RoundObserver = engine.ObserverFunc(func(engine.RoundRecord) (bool, error) { return cancelSecond() })
				if frontier {
					obs = engine.FrontierFunc(func(engine.Frontier) (bool, error) { return cancelSecond() })
				}
				sess, err := sim.New(g, sim.WithEngine(kind), sim.WithOrigins(0), sim.WithObserver(obs))
				if err != nil {
					t.Fatal(err)
				}
				_, err = sess.Run(ctx)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("frontier=%t: err = %v, want context.Canceled", frontier, err)
				}
				if rounds != 2 {
					t.Fatalf("frontier=%t: observer saw %d rounds after cancel at round 2", frontier, rounds)
				}
			}
		})
	}
}

// TestCancellationBeforeRun: a pre-cancelled context aborts immediately on
// every engine, with no rounds executed.
func TestCancellationBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range allEngines {
		sess, err := sim.New(gen.Cycle(16), sim.WithEngine(kind), sim.WithOrigins(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", kind, err)
		}
		if res.Rounds != 0 {
			t.Fatalf("%s: %d rounds ran under a cancelled context", kind, res.Rounds)
		}
	}
}

// TestRoundBudgetSurvivesSessionReuse: the budget observer is stateless,
// so every run of a reused session (and every source of a batch) gets the
// full budget, not the first run's leftovers.
func TestRoundBudgetSurvivesSessionReuse(t *testing.T) {
	g := gen.Cycle(64)
	sess, err := sim.New(g,
		sim.WithOrigins(0),
		sim.WithObserver(&sim.RoundBudget{Budget: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped || res.Rounds != 3 {
			t.Fatalf("run %d: stopped=%t rounds=%d, want true/3", i, res.Stopped, res.Rounds)
		}
	}
	for i, res := range runEach(t, sess, []graph.NodeID{0, 7, 21}) {
		if !res.Stopped || res.Rounds != 3 {
			t.Fatalf("RunFrom run %d: stopped=%t rounds=%d, want true/3", i, res.Stopped, res.Rounds)
		}
	}
}

func TestMultiObserverFansOutAndAggregatesStop(t *testing.T) {
	recorder := &sim.TraceRecorder{}
	budget := &sim.RoundBudget{Budget: 2}
	res, err := stopSession(t, sim.Sequential, sim.MultiObserver{recorder, budget, nil}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Rounds != 2 {
		t.Fatalf("stopped=%t rounds=%d, want true/2", res.Stopped, res.Rounds)
	}
	if len(recorder.Trace) != 2 {
		t.Fatalf("recorder saw %d rounds, want 2 (must observe the stopping round)", len(recorder.Trace))
	}
	if !engine.EqualTraces(recorder.Trace, res.Trace) {
		t.Fatal("recorder trace differs from the engine trace")
	}
	recorder.Reset()
	if len(recorder.Trace) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

func TestMultiObserverPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("late observer boom")
	called := false
	obs := sim.MultiObserver{
		engine.ObserverFunc(func(engine.RoundRecord) (bool, error) { return false, sentinel }),
		engine.ObserverFunc(func(engine.RoundRecord) (bool, error) { called = true; return false, nil }),
	}
	_, err := stopSession(t, sim.Sequential, obs, true)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if called {
		t.Fatal("observer after the erroring one was still invoked")
	}
}

func TestResultJSONCarriesEngineAttribution(t *testing.T) {
	sess, err := sim.New(gen.Path(4), sim.WithEngine(sim.Fast), sim.WithOrigins(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("%+v", res)
	if res.Engine != "fast" || !strings.Contains(out, "fast") {
		t.Fatalf("engine attribution missing: %s", out)
	}
	if res.WallTime <= 0 {
		t.Fatal("WallTime not populated")
	}
}

func TestErrMaxRoundsStillPropagates(t *testing.T) {
	for _, kind := range allEngines {
		sess, err := sim.New(gen.Cycle(33), sim.WithEngine(kind), sim.WithOrigins(0), sim.WithMaxRounds(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background()); !errors.Is(err, engine.ErrMaxRounds) {
			t.Fatalf("%s: err = %v, want ErrMaxRounds", kind, err)
		}
	}
}

func TestObserverRecordsMatchTraceCopies(t *testing.T) {
	// The observer sees engine-internal slices; TraceRecorder's copies must
	// equal the engine's own Options.Trace copies for every engine.
	for _, kind := range allEngines {
		recorder := &sim.TraceRecorder{}
		sess, err := sim.New(gen.Wheel(9),
			sim.WithEngine(kind),
			sim.WithOrigins(2),
			sim.WithTrace(true),
			sim.WithObserver(recorder),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !engine.EqualTraces(res.Trace, recorder.Trace) {
			t.Fatalf("%s: recorder trace differs from Options.Trace", kind)
		}
	}
}

func TestReflectDeepEqualBatchReuse(t *testing.T) {
	// Two sweeps of RunFrom over the same sources on one session must agree
	// entirely (arena reuse must not leak state between runs).
	g := gen.Lollipop(4, 20)
	sources := []graph.NodeID{0, 5, 10, 15}
	sess, err := sim.New(g, sim.WithEngine(sim.Fast), sim.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	first, second := runEach(t, sess, sources), runEach(t, sess, sources)
	for i := range first {
		first[i].WallTime, second[i].WallTime = 0, 0
		first[i].Phases, second[i].Phases = engine.PhaseTimings{}, engine.PhaseTimings{}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("second sweep differs at source %d", sources[i])
		}
	}
}
