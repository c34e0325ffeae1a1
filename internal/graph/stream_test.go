package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// replay adapts a fixed edge list (with duplicates welcome) into a
// FromStream emit closure.
func replay(edges [][2]NodeID) func(add func(u, v NodeID)) error {
	return func(add func(u, v NodeID)) error {
		for _, e := range edges {
			add(e[0], e[1])
		}
		return nil
	}
}

// TestFromStreamMatchesBuilder: a random multigraph stream builds the exact
// graph the Builder produces from the same edges — same CSR, same adjacency,
// same counts — including duplicate collapse.
func TestFromStreamMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 60
	var edges [][2]NodeID
	b := NewBuilder(n).Name("streamed")
	for i := 0; i < 400; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, [2]NodeID{u, v})
		b.AddEdge(u, v)
		if rng.Intn(4) == 0 { // duplicate some edges, both orientations
			edges = append(edges, [2]NodeID{v, u})
			b.AddEdge(v, u)
		}
	}
	want := mustBuild(t, b)
	got, err := FromStream("streamed", n, replay(edges))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.M() != want.M() || got.Name() != want.Name() {
		t.Fatalf("got n=%d m=%d %q, want n=%d m=%d %q", got.N(), got.M(), got.Name(), want.N(), want.M(), want.Name())
	}
	if !reflect.DeepEqual(got.CSR(), want.CSR()) {
		t.Fatal("CSR differs from Builder's")
	}
	for v := NodeID(0); int(v) < n; v++ {
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("neighbors of %d differ: %v vs %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatal("edge lists differ")
	}
}

func TestFromStreamErrors(t *testing.T) {
	if _, err := FromStream("", -1, replay(nil)); !errors.Is(err, ErrNoNodes) {
		t.Errorf("negative n: %v, want ErrNoNodes", err)
	}
	if _, err := FromStream("", 4, replay([][2]NodeID{{1, 1}})); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: %v, want ErrSelfLoop", err)
	}
	if _, err := FromStream("", 4, replay([][2]NodeID{{0, 4}})); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out of range: %v, want ErrNodeOutOfRange", err)
	}
	boom := errors.New("boom")
	if _, err := FromStream("", 4, func(func(u, v NodeID)) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("emit error: %v, want it propagated", err)
	}
	// A non-deterministic stream — different edge counts per pass — must be
	// rejected, in either direction.
	pass := 0
	grow := func(add func(u, v NodeID)) error {
		pass++
		add(0, 1)
		if pass > 1 {
			add(1, 2)
		}
		return nil
	}
	if _, err := FromStream("", 4, grow); !errors.Is(err, ErrStreamMismatch) {
		t.Errorf("growing stream: %v, want ErrStreamMismatch", err)
	}
	pass = 0
	shrink := func(add func(u, v NodeID)) error {
		pass++
		if pass == 1 {
			add(0, 1)
		}
		add(1, 2)
		if pass == 1 {
			add(2, 3)
		}
		return nil
	}
	if _, err := FromStream("", 4, shrink); !errors.Is(err, ErrStreamMismatch) {
		t.Errorf("shrinking stream: %v, want ErrStreamMismatch", err)
	}
}

// TestFromStreamReplayDivergence: a stream that replays the same edge COUNT
// but a different edge SEQUENCE is a contract violation that pass 2 must
// surface as ErrStreamMismatch — never as an index-out-of-range panic or a
// silently corrupted arena.
func TestFromStreamReplayDivergence(t *testing.T) {
	twoPass := func(first, second [][2]NodeID) func(add func(u, v NodeID)) error {
		pass := 0
		return func(add func(u, v NodeID)) error {
			pass++
			edges := first
			if pass > 1 {
				edges = second
			}
			for _, e := range edges {
				add(e[0], e[1])
			}
			return nil
		}
	}
	cases := []struct {
		name          string
		first, second [][2]NodeID
	}{
		{"out-of-range endpoint", [][2]NodeID{{0, 1}}, [][2]NodeID{{0, 7}}},
		{"negative endpoint", [][2]NodeID{{0, 1}}, [][2]NodeID{{-1, 1}}},
		{"self-loop", [][2]NodeID{{0, 1}}, [][2]NodeID{{1, 1}}},
		{"row overfill", [][2]NodeID{{0, 1}, {2, 3}}, [][2]NodeID{{0, 1}, {0, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromStream("", 4, twoPass(c.first, c.second)); !errors.Is(err, ErrStreamMismatch) {
				t.Errorf("divergent replay: %v, want ErrStreamMismatch", err)
			}
		})
	}
}

func TestFromStreamEmpty(t *testing.T) {
	g, err := FromStream("empty", 3, replay(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("n=%d m=%d, want 3 0", g.N(), g.M())
	}
	zero, err := FromStream("", 0, replay(nil))
	if err != nil {
		t.Fatal(err)
	}
	if zero.N() != 0 {
		t.Fatalf("n=%d, want 0", zero.N())
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows("", -1, 0, replay(nil)); !errors.Is(err, ErrNoNodes) {
		t.Errorf("negative n: %v, want ErrNoNodes", err)
	}
	boom := errors.New("boom")
	if _, err := FromRows("", 4, 0, func(func(u, v NodeID)) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("emit error: %v, want it propagated", err)
	}
	cases := []struct {
		name  string
		edges [][2]NodeID
		want  error
	}{
		{"swapped pair", [][2]NodeID{{0, 1}, {2, 1}}, ErrRowOrder},
		{"repeated edge", [][2]NodeID{{0, 1}, {0, 2}, {0, 2}}, ErrRowOrder},
		{"descending row", [][2]NodeID{{0, 2}, {0, 1}}, ErrRowOrder},
		{"row revisited", [][2]NodeID{{0, 1}, {1, 2}, {0, 3}}, ErrRowOrder},
		{"self-loop", [][2]NodeID{{0, 1}, {2, 2}}, ErrSelfLoop},
		{"first edge a self-loop", [][2]NodeID{{0, 0}}, ErrSelfLoop},
		{"endpoint past n", [][2]NodeID{{0, 1}, {1, 4}}, ErrNodeOutOfRange},
		{"negative row", [][2]NodeID{{-1, 2}}, ErrNodeOutOfRange},
		{"row past n", [][2]NodeID{{0, 1}, {7, 9}}, ErrNodeOutOfRange},
		// The first error sticks; later valid edges are ignored.
		{"sticky", [][2]NodeID{{1, 0}, {1, 2}, {2, 3}}, ErrRowOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromRows("", 4, 2, replay(c.edges)); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestReadEdgeListStream: the reader streams the WriteEdgeList format
// into exactly the CSR the Builder produces for the same edges.
func TestReadEdgeListStream(t *testing.T) {
	b := NewBuilder(7).Name("roundtrip")
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {0, 6}} {
		b.AddEdge(e[0], e[1])
	}
	want := mustBuild(t, b)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CSR(), want.CSR()) || got.Name() != want.Name() || got.N() != want.N() {
		t.Fatal("streamed reader and Builder disagree")
	}
}

// TestReadEdgeListStreamEdgeCap: the reader fails fast with
// ErrTooManyEdges once the file exceeds the edge cap, instead of buffering
// an unbounded pair array first. The cap is lowered for the test; exercising
// the real 2^26 value would need a multi-GB fixture.
func TestReadEdgeListStreamEdgeCap(t *testing.T) {
	old := maxEdgeListEdges
	maxEdgeListEdges = 2
	defer func() { maxEdgeListEdges = old }()
	if _, err := ReadEdgeList(strings.NewReader("n 5\n0 1\n1 2\n2 3\n")); !errors.Is(err, ErrTooManyEdges) {
		t.Errorf("over cap: %v, want ErrTooManyEdges", err)
	}
	g, err := ReadEdgeList(strings.NewReader("n 5\n0 1\n1 2\n"))
	if err != nil {
		t.Fatalf("at cap: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2", g.M())
	}
}

// TestReadEdgeListNodeCap: a file declaring more than 2^24 nodes is
// rejected with ErrTooManyNodes on its node-count line, before the
// per-node arrays (32 bytes a node: 3.2 GB for the file below) exist.
func TestReadEdgeListNodeCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdgeList(strings.NewReader("n 100000000\n"))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v, want ErrTooManyNodes", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want under 1 MiB", alloc)
	}
	if _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("n %d\n", maxEdgeListNodes+1))); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("one over the cap: err = %v, want ErrTooManyNodes", err)
	}
}
