package model_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
)

// fuzzGraph builds a small seeded random connected graph and picks a
// source from the fuzz inputs.
func fuzzGraph(t *testing.T, seed int64, srcPick uint8) (*graph.Graph, graph.NodeID) {
	t.Helper()
	n := 2 + int(uint64(seed)%29)
	g, err := gen.Build("randconnected:n="+itoa(n)+",p=0.15", seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.NodeID(int(srcPick) % g.N())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// syncTrace runs the synchronous reference engine on amnesiac flooding.
func syncTrace(t *testing.T, g *graph.Graph, src graph.NodeID) engine.Result {
	t.Helper()
	flood, err := core.NewFlood(g, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), g, flood, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// FuzzZeroDelayAdversaryEquivalence: under the zero-delay adversary the
// model engine must reproduce the synchronous engine's run
// byte for byte — rounds, deliveries, and the full trace.
func FuzzZeroDelayAdversaryEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(3))
	f.Add(int64(-7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, srcPick uint8) {
		g, src := fuzzGraph(t, seed, srcPick)
		want := syncTrace(t, g, src)
		got, err := model.NewEngine(g, model.MustBuild("adversary:sync", seed)).
			Run(context.Background(), []graph.NodeID{src}, engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcome != engine.OutcomeTerminated {
			t.Fatalf("outcome = %v", got.Outcome)
		}
		if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages {
			t.Fatalf("rounds/messages = %d/%d, synchronous %d/%d", got.Rounds, got.TotalMessages, want.Rounds, want.TotalMessages)
		}
		if !engine.EqualTraces(got.Trace, want.Trace) {
			t.Fatal("zero-delay async trace differs from the synchronous trace")
		}
	})
}

// FuzzStaticScheduleEquivalence: under the static schedule the dynamic
// model engine must reproduce the synchronous engine's run byte for byte,
// with zero losses.
func FuzzStaticScheduleEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(99), uint8(7))
	f.Add(int64(-3), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, srcPick uint8) {
		g, src := fuzzGraph(t, seed, srcPick)
		want := syncTrace(t, g, src)
		got, err := model.NewEngine(g, model.MustBuild("schedule:static", seed)).
			Run(context.Background(), []graph.NodeID{src}, engine.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcome != engine.OutcomeTerminated || got.Lost != 0 {
			t.Fatalf("outcome = %v lost = %d", got.Outcome, got.Lost)
		}
		if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages {
			t.Fatalf("rounds/messages = %d/%d, synchronous %d/%d", got.Rounds, got.TotalMessages, want.Rounds, want.TotalMessages)
		}
		if !engine.EqualTraces(got.Trace, want.Trace) {
			t.Fatal("static dynamic trace differs from the synchronous trace")
		}
	})
}

// FuzzModelParse: for every string the parser accepts, the canonical form
// must round-trip exactly (Parse(s).String() == s after one
// canonicalisation) and rebuild an identical spec. The bind half builds
// every accepted spec and validates it against cycle:n=4: it must never
// panic, and a model naming what the cycle lacks must get a typed error.
func FuzzModelParse(f *testing.F) {
	for _, s := range roundTripSpecs {
		f.Add(s)
	}
	f.Add("adversary:hold:extra=2,node=1")
	f.Add("schedule:blink:phase=1")
	f.Add("Adversary:EDGE:u=3,v=4")
	f.Add("garbage")
	f.Add("sync:::")
	f.Add("schedule:crash:nodes=7,round=1")
	f.Add("adversary:hold:node=9")
	f.Add("schedule:outage:round=1,u=4294967296,v=3")
	f.Add("schedule:outage:round=1,u=0,v=2")
	f.Add("sChedule:CrAsh:nodes=0 0")
	cycle := gen.Cycle(4)
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := model.Parse(s)
		if err != nil {
			return // rejected input; nothing to round-trip
		}
		canon := spec.String()
		if strings.ContainsAny(canon, " \t\n") {
			t.Fatalf("canonical form %q contains whitespace", canon)
		}
		again, err := model.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, again.String())
		}
		if again.Kind != spec.Kind || again.Family != spec.Family || len(again.Params) != len(spec.Params) {
			t.Fatalf("re-parsed spec diverged: %+v vs %+v", again, spec)
		}
		for k, v := range spec.Params {
			if again.Params[k] != v {
				t.Fatalf("parameter %s diverged: %q vs %q", k, again.Params[k], v)
			}
		}

		m, err := model.New(spec, 1)
		if err != nil {
			return // parameters out of the family's range
		}
		if err := m.Validate(cycle); err != nil && !errors.Is(err, graph.ErrNodeOutOfRange) && !errors.Is(err, model.ErrNotAnEdge) {
			t.Fatalf("%s on %s: untyped bind error %v", canon, cycle, err)
		}
	})
}
