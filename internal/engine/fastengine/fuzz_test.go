package fastengine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

// FuzzEngineEquivalence drives random G(n, p) graphs through the
// sequential, channel, fast (sequential + parallel), and bitset engines and
// demands identical traces and Result fields, plus per-round message counts
// and receiver sets from an untraced, frontier-observed bitset run. The
// sequential run must also obey the exact law: doublecover.Predict gives
// its rounds, message total and trace, and theory.PredictTermination's
// bound holds: the exact round, at least e(src) (exactly e(src) on a
// bipartite component), and at most the window's upper end where that is
// certified. Every engine then matches it. Every input triple
// deterministically derives a graph, so failures reproduce exactly.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30))
	f.Add(int64(2), uint8(3), uint8(100)) // triangle-ish, dense
	f.Add(int64(3), uint8(40), uint8(10))
	f.Add(int64(20190729), uint8(64), uint8(5))
	f.Add(int64(-7), uint8(2), uint8(0)) // edgeless pair
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw uint8) {
		n := 2 + int(nRaw)%63 // 2..64 nodes keeps the goroutine engine cheap
		p := float64(pRaw%101) / 100
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomGNP(n, p, rng)
		src := graph.NodeID(rng.Intn(n))
		flood := core.MustNewFlood(g, src)

		opts := engine.Options{Trace: true}
		want, err := engine.Run(context.Background(), g, flood, opts)
		if err != nil {
			t.Fatalf("sequential on %s from %d: %v", g, src, err)
		}
		// The exact law: amnesiac flooding is classic flooding on the
		// bipartite double cover, so one parity BFS predicts the whole
		// run. The paper's theorem follows: the flood terminates, in
		// exactly e(src) rounds on a bipartite component and within
		// e(src)..2D+1 otherwise.
		if pred := doublecover.Predict(g, src); pred.Rounds != want.Rounds || pred.TotalMessages != want.TotalMessages ||
			!engine.EqualTraces(pred.Trace, want.Trace) {
			t.Fatalf("sequential on %s from %d: %d rounds, %d messages, want the double cover's %d and %d (traces equal: %t)",
				g, src, want.Rounds, want.TotalMessages, pred.Rounds, pred.TotalMessages, engine.EqualTraces(pred.Trace, want.Trace))
		}
		if bound := theory.PredictTermination(g, src); !want.Terminated || !bound.Holds(want.Rounds) {
			t.Fatalf("sequential on %s from %d: terminated=%t after %d rounds, want termination as %+v",
				g, src, want.Terminated, want.Rounds, bound)
		}
		engines := []struct {
			name string
			run  func(context.Context, *graph.Graph, engine.Protocol, engine.Options) (engine.Result, error)
		}{
			{"chan", chanengine.Run},
			{"fast", fastengine.Run},
			{"fastParallel", fastengine.RunParallel},
			// The fuzz graphs are below the default sharding threshold;
			// ParallelThreshold 1 makes every round take the sharded path.
			{"fastSharded", func(ctx context.Context, g *graph.Graph, p engine.Protocol, o engine.Options) (engine.Result, error) {
				o.ParallelThreshold = 1
				return fastengine.RunParallel(ctx, g, p, o)
			}},
			{"bitset", bitengine.Run},
		}
		for _, e := range engines {
			got, err := e.run(context.Background(), g, flood, opts)
			if err != nil {
				t.Fatalf("%s on %s from %d: %v", e.name, g, src, err)
			}
			if !engine.EqualTraces(want.Trace, got.Trace) {
				t.Errorf("%s on %s from %d: trace differs from sequential", e.name, g, src)
			}
			if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages ||
				got.Terminated != want.Terminated || got.Protocol != want.Protocol {
				t.Errorf("%s on %s from %d: result %+v, want %+v", e.name, g, src, got, want)
			}
		}

		// Untraced with a frontier-only observer, the bitset engine never
		// materialises Sends: its per-round message counts and receiver
		// sets must still be the sequential trace's.
		round := 0
		got, err := bitengine.Run(context.Background(), g, flood, engine.Options{Observer: engine.FrontierFunc(func(f engine.Frontier) (bool, error) {
			if round >= len(want.Trace) {
				return false, fmt.Errorf("round %d beyond the sequential trace", f.Round)
			}
			rec := want.Trace[round]
			round++
			var recv []graph.NodeID
			for v := range f.Receivers {
				recv = append(recv, v)
			}
			slices.Sort(recv)
			if f.Round != rec.Round || f.Messages != len(rec.Sends) || !slices.Equal(slices.Compact(recv), rec.Receivers()) {
				return false, fmt.Errorf("round %d: frontier %d msgs to %v, sequential round %d: %d msgs to %v",
					f.Round, f.Messages, recv, rec.Round, len(rec.Sends), rec.Receivers())
			}
			return false, nil
		})})
		if err != nil {
			t.Fatalf("bitsetFrontier on %s from %d: %v", g, src, err)
		}
		if round != len(want.Trace) || got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || got.Terminated != want.Terminated {
			t.Errorf("bitsetFrontier on %s from %d: %d rounds observed, result %+v, want %+v", g, src, round, got, want)
		}
	})
}
