package fastengine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/engine/chanengine"
	"amnesiacflood/internal/engine/fastengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/theory"
)

// FuzzEngineEquivalence drives random G(n, p) graphs through the
// sequential, channel, fast and bitset engines and demands identical traces
// and Result fields, plus per-round message counts and receiver sets from
// an untraced, frontier-observed bitset run. Each input floods amnesiac
// from one origin and zero to two more drawn after it, so every committed
// corpus entry keeps its graph and first origin, and runs classic flooding
// from the first origin. The sequential amnesiac run, through a sim
// session with the termination analysis attached, must also obey the exact
// law for its origin set: doublecover.Predict gives its rounds, message
// total and trace, and theory.CheckLaw accepts it: the double-cover round
// and receipts, at least e(S) (exactly e(S) where no node is reached in
// both parities), and at most the window's upper end where that is
// certified. Every engine then matches the sequential run of each
// protocol. Every input triple deterministically derives a graph and
// origins, so failures reproduce exactly.
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
		origins := []graph.NodeID{src}
		for extra := rng.Intn(3); extra > 0; extra-- {
			origins = append(origins, graph.NodeID(rng.Intn(n)))
		}
		flood := core.MustNewFlood(g, origins...)

		opts := engine.Options{Trace: true}
		sess, err := sim.New(g, sim.WithOrigins(origins...), sim.WithTrace(true), sim.WithAnalysis("termination"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("sequential on %s from %v: %v", g, origins, err)
		}
		// The exact law: amnesiac flooding is classic flooding on the
		// bipartite double cover, so one parity BFS from the origins
		// predicts the whole run. The paper's theorem follows: the flood
		// terminates, in exactly e(S) rounds where no node is reached in
		// both parities and within e(S)..2D+1 otherwise.
		if pred := doublecover.Predict(g, origins...); pred.Rounds != want.Rounds || pred.TotalMessages != want.TotalMessages ||
			!engine.EqualTraces(pred.Trace, want.Trace) {
			t.Fatalf("sequential on %s from %v: %d rounds, %d messages, want the double cover's %d and %d (traces equal: %t)",
				g, origins, want.Rounds, want.TotalMessages, pred.Rounds, pred.TotalMessages, engine.EqualTraces(pred.Trace, want.Trace))
		}
		if err := theory.CheckLaw(want); err != nil {
			t.Fatalf("sequential on %s from %v: %v (metrics %v)", g, origins, err, want.Metrics)
		}
		classicFlood := classic.MustNewFlood(g, src)
		wantClassic, err := engine.Run(context.Background(), g, classicFlood, opts)
		if err != nil {
			t.Fatalf("sequential classic on %s from %d: %v", g, src, err)
		}
		runs := []struct {
			name  string
			proto engine.Protocol
			want  engine.Result
		}{
			{"amnesiac", flood, want},
			{"classic", classicFlood, wantClassic},
		}
		engines := []struct {
			name string
			run  func(context.Context, *graph.Graph, engine.Protocol, engine.Options) (engine.Result, error)
		}{
			{"chan", chanengine.Run},
			{"fast", fastengine.Run},
			{"bitset", bitengine.Run},
		}
		for _, r := range runs {
			want := r.want
			for _, e := range engines {
				got, err := e.run(context.Background(), g, r.proto, opts)
				if err != nil {
					t.Fatalf("%s %s on %s from %v: %v", e.name, r.name, g, origins, err)
				}
				if !engine.EqualTraces(want.Trace, got.Trace) {
					t.Errorf("%s %s on %s from %v: trace differs from sequential", e.name, r.name, g, origins)
				}
				if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages ||
					got.Terminated != want.Terminated || got.Protocol != want.Protocol {
					t.Errorf("%s %s on %s from %v: result %+v, want %+v", e.name, r.name, g, origins, got, want)
				}
			}

			// Untraced with a frontier-only observer, the bitset engine never
			// materialises Sends: its per-round message counts and receiver
			// sets must still be the sequential trace's.
			round := 0
			got, err := bitengine.Run(context.Background(), g, r.proto, engine.Options{Observer: engine.FrontierFunc(func(f engine.Frontier) (bool, error) {
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
				t.Fatalf("bitsetFrontier %s on %s from %v: %v", r.name, g, origins, err)
			}
			if round != len(want.Trace) || got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || got.Terminated != want.Terminated {
				t.Errorf("bitsetFrontier %s on %s from %v: %d rounds observed, result %+v, want %+v", r.name, g, origins, round, got, want)
			}
		}
	})
}
