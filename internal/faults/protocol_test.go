package faults_test

import (
	"context"
	"math/rand"
	"testing"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/faults"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// trimTrailingEmpty drops the final all-dropped round the dedicated runner
// records (the protocol form never emits a doomed send, so its run ends one
// round earlier when the last round's messages are all lost).
func trimTrailingEmpty(trace []engine.RoundRecord) []engine.RoundRecord {
	for len(trace) > 0 && len(trace[len(trace)-1].Sends) == 0 {
		trace = trace[:len(trace)-1]
	}
	return trace
}

// TestProtocolMatchesDedicatedRunner is the differential test between the
// two fault execution paths: the engine-hosted Protocol (drops folded into
// emission) and the package's own Run (drops applied at delivery) must see
// the same surviving deliveries round for round.
func TestProtocolMatchesDedicatedRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*graph.Graph{
		gen.Cycle(12), gen.Cycle(13), gen.Grid(6, 6),
		gen.Petersen(), gen.RandomConnected(40, 0.1, rng),
	}
	injectors := []faults.Injector{
		faults.NoFaults{},
		faults.RandomLoss{P: 0.1, Seed: 3},
		faults.RandomLoss{P: 0.4, Seed: 9},
		faults.DropOnce{Round: 2, From: 0, To: 1},
		faults.CrashAt{CrashRound: map[graph.NodeID]int{3: 2}},
	}
	for _, g := range graphs {
		for _, inj := range injectors {
			src := graph.NodeID(rng.Intn(g.N()))
			want, err := faults.Run(g, inj, faults.Options{Trace: true, MaxRounds: 128}, src)
			if err != nil {
				t.Fatalf("runner %s on %s: %v", inj.Name(), g, err)
			}
			if want.Outcome != faults.Terminated {
				continue // protocol-form runs cannot certify loops; skip
			}
			proto, err := faults.NewProtocol(g, inj, src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true, MaxRounds: 128})
			if err != nil {
				t.Fatalf("engine %s on %s: %v", inj.Name(), g, err)
			}
			wantTrace := trimTrailingEmpty(want.Trace)
			if !engine.EqualTraces(wantTrace, got.Trace) {
				t.Errorf("%s on %s from %d: protocol trace differs from dedicated runner", inj.Name(), g, src)
			}
			if got.TotalMessages != want.Delivered {
				t.Errorf("%s on %s: protocol delivered %d, runner %d", inj.Name(), g, got.TotalMessages, want.Delivered)
			}
		}
	}
}

// TestProtocolEngineEquivalence: the faulty protocol is a pure function of
// (round, node, senders), so all three engines that run it must agree on
// its trace.
// Message loss legitimately breaks termination (the paper's E12 finding),
// so the runs are bounded and the traces compared over the bounded prefix,
// with every engine reporting the same round-limit outcome.
func TestProtocolEngineEquivalence(t *testing.T) {
	g := gen.Grid(8, 8)
	inj := faults.RandomLoss{P: 0.15, Seed: 21}
	proto, err := faults.NewProtocol(g, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Trace: true, MaxRounds: 256}
	ctx := context.Background()
	want, wantErr := engine.Run(ctx, g, proto, opts)
	runners := map[string]func() (engine.Result, error){
		"channels": func() (engine.Result, error) { return chanengine.Run(ctx, g, proto, opts) },
		"fast":     func() (engine.Result, error) { return fastengine.Run(ctx, g, proto, opts) },
	}
	for name, run := range runners {
		got, err := run()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: err = %v, sequential err = %v", name, err, wantErr)
		}
		if !engine.EqualTraces(want.Trace, got.Trace) {
			t.Errorf("%s: faulty-protocol trace differs from sequential", name)
		}
	}
}
