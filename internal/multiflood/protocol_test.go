package multiflood_test

import (
	"context"
	"testing"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/multiflood"
)

// TestProtocolReplaysUnionSchedule: the replay protocol's trace must equal
// the superposition of the solo floods — same rounds, and each round's send
// set the deduplicated union of the solo rounds.
func TestProtocolReplaysUnionSchedule(t *testing.T) {
	g := gen.Grid(5, 5)
	origins := []graph.NodeID{0, 12, 24}
	proto, err := multiflood.NewProtocol(g, origins...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), g, proto, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := multiflood.Run(g, multiflood.AllFromOrigins(origins))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != solo.Rounds {
		t.Fatalf("replay rounds = %d, union of solos = %d", res.Rounds, solo.Rounds)
	}
	// Rebuild the union per round and compare as sets.
	union := make([]map[engine.Send]bool, solo.Rounds+1)
	for _, s := range solo.PerBroadcast {
		for _, rec := range s.Trace {
			if union[rec.Round] == nil {
				union[rec.Round] = map[engine.Send]bool{}
			}
			for _, send := range rec.Sends {
				union[rec.Round][send] = true
			}
		}
	}
	for _, rec := range res.Trace {
		want := union[rec.Round]
		if len(rec.Sends) != len(want) {
			t.Fatalf("round %d: replay has %d sends, union has %d", rec.Round, len(rec.Sends), len(want))
		}
		for _, s := range rec.Sends {
			if !want[s] {
				t.Fatalf("round %d: replay send %v not in union", rec.Round, s)
			}
		}
	}
}

// TestProtocolEngineEquivalence: the replay is deterministic, so all three
// engines that run it must agree byte for byte.
func TestProtocolEngineEquivalence(t *testing.T) {
	g := gen.Cycle(17) // odd cycle: overlapping, long-lived wavefronts
	proto, err := multiflood.NewProtocol(g, 0, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Trace: true}
	ctx := context.Background()
	want, err := engine.Run(ctx, g, proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (engine.Result, error){
		"channels": func() (engine.Result, error) { return chanengine.Run(ctx, g, proto, opts) },
		"fast":     func() (engine.Result, error) { return fastengine.Run(ctx, g, proto, opts) },
	} {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !engine.EqualTraces(want.Trace, got.Trace) {
			t.Errorf("%s: replay trace differs from sequential", name)
		}
	}
}

func TestProtocolRejectsNoOrigins(t *testing.T) {
	if _, err := multiflood.NewProtocol(gen.Cycle(4)); err == nil {
		t.Fatal("no-origin protocol accepted")
	}
}
