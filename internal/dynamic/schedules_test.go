package dynamic_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"amnesiacflood/internal/dynamic"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// Engine-level behaviour of these schedules (termination, certificates,
// equivalence with the synchronous engines) is covered by the differential
// and fuzz tests in internal/model; this file unit-tests the liveness
// policies themselves.

func TestScheduleNames(t *testing.T) {
	cases := []struct {
		sched model.Schedule
		want  string
	}{
		{dynamic.Static{}, "static"},
		{dynamic.OutageOnce{Round: 2, Edge: graph.Edge{U: 3, V: 1}}, "outage(r2,(1,3))"},
		{dynamic.Blinking{Edge: graph.Edge{U: 0, V: 1}, K: 2}, "blinking((0,1),k=2)"},
		{dynamic.Alternating{}, "alternating-halves"},
		{dynamic.Loss{P: 0.25}, "loss(p=0.25)"},
		{dynamic.Crash{Nodes: []graph.NodeID{2, 5}, Round: 3}, "crash(2+5@r3)"},
	}
	for _, tc := range cases {
		if got := tc.sched.Name(); got != tc.want {
			t.Errorf("name = %q, want %q", got, tc.want)
		}
	}
}

// TestFaultSpecNames: the fault schedules built from their spec strings
// name the fault they inject — one lost crossing, random loss (p=0 is the
// fault-free run) and a crash.
func TestFaultSpecNames(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"schedule:outage:round=1,u=0,v=3", "outage(r1,(0,3))"},
		{"schedule:loss:p=0", "loss(p=0)"},
		{"schedule:loss:p=0.25", "loss(p=0.25)"},
		{"schedule:crash:nodes=2,round=1", "crash(2@r1)"},
		{"schedule:crash:nodes=2+5,round=3", "crash(2+5@r3)"},
	}
	for _, tc := range cases {
		m, err := model.Build(tc.spec, 1)
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.spec, err)
		}
		if got := m.Schedule.Name(); got != tc.want {
			t.Errorf("%s: name = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestOutageOnceLiveness(t *testing.T) {
	o := dynamic.OutageOnce{Round: 2, Edge: graph.Edge{U: 3, V: 1}}
	e := graph.Edge{U: 1, V: 3}
	if o.Alive(2, e) {
		t.Error("edge alive in its outage round")
	}
	if !o.Alive(1, e) || !o.Alive(3, e) {
		t.Error("edge dead outside its outage round")
	}
	if o.Alive(2, graph.Edge{U: 3, V: 1}) {
		t.Error("the reverse copy crossed the link in its outage round")
	}
	if !o.Alive(2, graph.Edge{U: 0, V: 1}) {
		t.Error("outage leaked onto another edge")
	}
	if o.Period() != 1 || o.SettledAfter() != 2 {
		t.Errorf("period/settled = %d/%d, want 1/2", o.Period(), o.SettledAfter())
	}
}

func TestBlinkingLiveness(t *testing.T) {
	b := dynamic.Blinking{Edge: graph.Edge{U: 1, V: 2}, K: 3, Phase: 1}
	e := graph.Edge{U: 1, V: 2}
	for round := 1; round <= 9; round++ {
		want := round%3 == 1
		if b.Alive(round, e) != want || b.Alive(round, graph.Edge{U: 2, V: 1}) != want {
			t.Errorf("round %d: alive = %t, want %t in both directions", round, b.Alive(round, e), want)
		}
		if !b.Alive(round, graph.Edge{U: 0, V: 1}) {
			t.Errorf("round %d: other edges must stay up", round)
		}
	}
	if b.Period() != 3 {
		t.Errorf("period = %d, want 3", b.Period())
	}
}

func TestAlternatingLiveness(t *testing.T) {
	a := dynamic.Alternating{}
	if a.Period() != 2 {
		t.Errorf("period = %d, want 2", a.Period())
	}
	// Every edge flips between consecutive rounds.
	for _, e := range []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 4}} {
		if a.Alive(1, e) == a.Alive(2, e) {
			t.Errorf("edge %v does not alternate", e)
		}
		if a.Alive(1, e) != a.Alive(3, e) {
			t.Errorf("edge %v is not 2-periodic", e)
		}
	}
}

func TestStaticLiveness(t *testing.T) {
	s := dynamic.Static{}
	if !s.Alive(1, graph.Edge{U: 0, V: 1}) || s.Period() != 1 {
		t.Error("static schedule must keep everything alive with period 1")
	}
}

// TestLossDrawIsFNV pins the loss draw bit for bit: FNV-1a over the
// little-endian 8-byte words (seed, round, from, to), top 53 bits, and a
// copy survives exactly when its draw is at least p.
func TestLossDrawIsFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		seed, round := rng.Int63()-1<<62, rng.Intn(1<<20)
		e := graph.Edge{U: graph.NodeID(rng.Intn(1 << 20)), V: graph.NodeID(rng.Intn(1 << 20))}
		h := fnv.New64a()
		for _, w := range []int64{seed, int64(round), int64(e.U), int64(e.V)} {
			_ = binary.Write(h, binary.LittleEndian, w)
		}
		draw := float64(h.Sum64()>>11) / float64(1<<53)
		at := dynamic.Loss{P: draw, Seed: seed}
		above := dynamic.Loss{P: math.Nextafter(draw, 1), Seed: seed}
		if !at.Alive(round, e) || above.Alive(round, e) {
			t.Fatalf("seed %d round %d copy %v: the draw is not %v", seed, round, e, draw)
		}
	}
	if (dynamic.Loss{P: 0}).Period() != 0 {
		t.Error("loss must be aperiodic")
	}
}

func TestCrashLiveness(t *testing.T) {
	c := dynamic.Crash{Nodes: []graph.NodeID{2, 5}, Round: 3}
	for round := 1; round <= 5; round++ {
		up := round < 3
		for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 5, V: 4}, {U: 2, V: 5}} {
			if c.Alive(round, e) != up {
				t.Errorf("round %d copy %v: alive = %t, want %t", round, e, c.Alive(round, e), up)
			}
		}
		if !c.Alive(round, graph.Edge{U: 0, V: 1}) {
			t.Errorf("round %d: a copy between live nodes was lost", round)
		}
	}
	if c.Period() != 1 || c.SettledAfter() != 3 {
		t.Errorf("period/settled = %d/%d, want 1/3", c.Period(), c.SettledAfter())
	}
}
