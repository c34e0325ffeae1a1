package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"amnesiacflood/internal/graph"
)

// echoOnce is a test protocol: the origin sends to all neighbours, and every
// receiver echoes back to its senders exactly once (then stays silent). It
// exercises per-node state in automata.
type echoOnce struct {
	g      *graph.Graph
	origin graph.NodeID
}

func (p *echoOnce) Name() string { return "echo-once" }

func (p *echoOnce) Bootstrap() []Send {
	var sends []Send
	for _, nbr := range p.g.Neighbors(p.origin) {
		sends = append(sends, Send{From: p.origin, To: nbr})
	}
	return sends
}

func (p *echoOnce) NewNode(v graph.NodeID) NodeAutomaton {
	done := false
	return func(_ int, senders []graph.NodeID) []graph.NodeID {
		if done || v == p.origin {
			return nil
		}
		done = true
		return append([]graph.NodeID(nil), senders...)
	}
}

// silent never sends anything.
type silent struct{}

func (silent) Name() string      { return "silent" }
func (silent) Bootstrap() []Send { return nil }
func (silent) NewNode(graph.NodeID) NodeAutomaton {
	return func(int, []graph.NodeID) []graph.NodeID { return nil }
}

// chatterbox floods forever: every receiver sends to all neighbours every
// round. Used to exercise the round limit.
type chatterbox struct {
	g *graph.Graph
}

func (p *chatterbox) Name() string { return "chatterbox" }

func (p *chatterbox) Bootstrap() []Send {
	var sends []Send
	for _, nbr := range p.g.Neighbors(0) {
		sends = append(sends, Send{From: 0, To: nbr})
	}
	return sends
}

func (p *chatterbox) NewNode(v graph.NodeID) NodeAutomaton {
	return func(int, []graph.NodeID) []graph.NodeID {
		return p.g.Neighbors(v)
	}
}

func star(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunEchoOnce(t *testing.T) {
	g := star(t, 3)
	res, err := Run(context.Background(), g, &echoOnce{g: g, origin: 0}, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("echo-once did not terminate")
	}
	// Round 1: hub -> 3 leaves. Round 2: each leaf echoes to hub. Then the
	// hub (origin) stays silent.
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if res.TotalMessages != 6 {
		t.Fatalf("messages = %d, want 6", res.TotalMessages)
	}
	wantRound2 := []Send{{From: 1, To: 0}, {From: 2, To: 0}, {From: 3, To: 0}}
	if !reflect.DeepEqual(res.Trace[1].Sends, wantRound2) {
		t.Fatalf("round 2 sends = %v, want %v", res.Trace[1].Sends, wantRound2)
	}
}

func TestRunSilentProtocol(t *testing.T) {
	g := star(t, 2)
	res, err := Run(context.Background(), g, silent{}, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Rounds != 0 || res.TotalMessages != 0 || len(res.Trace) != 0 {
		t.Fatalf("silent run = %+v, want immediate termination", res)
	}
}

func TestRunMaxRounds(t *testing.T) {
	g := star(t, 2)
	_, err := Run(context.Background(), g, &chatterbox{g: g}, Options{MaxRounds: 10})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("error = %v, want ErrMaxRounds", err)
	}
}

func TestRunObserverSeesEveryRound(t *testing.T) {
	g := star(t, 3)
	var rounds []int
	var totals []int
	_, err := Run(context.Background(), g, &echoOnce{g: g, origin: 0}, Options{
		Observer: ObserverFunc(func(rec RoundRecord) (bool, error) {
			rounds = append(rounds, rec.Round)
			totals = append(totals, len(rec.Sends))
			return false, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2}) {
		t.Fatalf("observer rounds = %v, want [1 2]", rounds)
	}
	if !reflect.DeepEqual(totals, []int{3, 3}) {
		t.Fatalf("observer send counts = %v, want [3 3]", totals)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := star(t, 2)
	res, err := Run(context.Background(), g, &echoOnce{g: g, origin: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded without Options.Trace")
	}
}

func TestNormalizeSends(t *testing.T) {
	in := []Send{{From: 2, To: 1}, {From: 0, To: 1}, {From: 2, To: 1}, {From: 0, To: 2}}
	got := normalizeSends(in)
	want := []Send{{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeSends = %v, want %v", got, want)
	}
	if normalizeSends(nil) != nil {
		t.Fatal("normalizeSends(nil) != nil")
	}
}

// bootstrapKeeper returns the same unsorted bootstrap slice on every call,
// the caller-visible state the engine must not mutate.
type bootstrapKeeper struct {
	g     *graph.Graph
	sends []Send
}

func (p *bootstrapKeeper) Name() string      { return "bootstrap-keeper" }
func (p *bootstrapKeeper) Bootstrap() []Send { return p.sends }
func (p *bootstrapKeeper) NewNode(graph.NodeID) NodeAutomaton {
	return func(int, []graph.NodeID) []graph.NodeID { return nil }
}

func TestRunDoesNotMutateBootstrap(t *testing.T) {
	g := star(t, 3)
	// Deliberately unsorted, with a duplicate: normalisation must happen
	// on the engine's copy, not in place.
	sends := []Send{{From: 0, To: 3}, {From: 0, To: 1}, {From: 0, To: 3}, {From: 0, To: 2}}
	want := append([]Send(nil), sends...)
	proto := &bootstrapKeeper{g: g, sends: sends}
	if _, err := Run(context.Background(), g, proto, Options{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sends, want) {
		t.Fatalf("Run mutated the protocol's bootstrap slice: %v, want %v", sends, want)
	}
}

func TestRoundRecordSendersReceivers(t *testing.T) {
	rec := RoundRecord{Round: 1, Sends: []Send{{From: 2, To: 0}, {From: 2, To: 1}, {From: 5, To: 0}}}
	if got := rec.Senders(); !reflect.DeepEqual(got, []graph.NodeID{2, 5}) {
		t.Fatalf("Senders = %v", got)
	}
	if got := rec.Receivers(); !reflect.DeepEqual(got, []graph.NodeID{0, 1}) {
		t.Fatalf("Receivers = %v", got)
	}
}

func TestEqualTraces(t *testing.T) {
	a := []RoundRecord{{Round: 1, Sends: []Send{{From: 0, To: 1}}}}
	b := []RoundRecord{{Round: 1, Sends: []Send{{From: 0, To: 1}}}}
	if !EqualTraces(a, b) {
		t.Fatal("identical traces reported unequal")
	}
	c := []RoundRecord{{Round: 1, Sends: []Send{{From: 0, To: 2}}}}
	if EqualTraces(a, c) {
		t.Fatal("different sends reported equal")
	}
	d := []RoundRecord{{Round: 2, Sends: []Send{{From: 0, To: 1}}}}
	if EqualTraces(a, d) {
		t.Fatal("different round numbers reported equal")
	}
	if EqualTraces(a, nil) {
		t.Fatal("different lengths reported equal")
	}
	if !EqualTraces(nil, nil) {
		t.Fatal("two empty traces reported unequal")
	}
}

func TestSendString(t *testing.T) {
	if got := (Send{From: 3, To: 7}).String(); got != "3->7" {
		t.Fatalf("Send.String = %q", got)
	}
}

// TestOutcomeString pins the outcome spellings that tables, JSON rows and
// the CLIs print.
func TestOutcomeString(t *testing.T) {
	if OutcomeTerminated.String() != "terminated" ||
		OutcomeCycle.String() != "non-termination-certified" ||
		OutcomeRoundLimit.String() != "round-limit" {
		t.Fatal("outcome strings wrong")
	}
	for _, o := range []Outcome{OutcomeNone, OutcomeTerminated, OutcomeCycle, OutcomeRoundLimit} {
		data, err := o.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Outcome
		if err := back.UnmarshalJSON(data); err != nil || back != o {
			t.Errorf("outcome %v round-trips to %v (%v)", o, back, err)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	g := star(t, 5)
	first, err := Run(context.Background(), g, &echoOnce{g: g, origin: 0}, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Run(context.Background(), g, &echoOnce{g: g, origin: 0}, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualTraces(first.Trace, again.Trace) {
			t.Fatal("two sequential runs produced different traces")
		}
	}
}
