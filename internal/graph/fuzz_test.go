package graph

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary text to the edge-list reader behind
// afsim/afviz -file and the edgefile graph family: it must never panic,
// and everything it accepts must round-trip through WriteEdgeList into an
// equivalent graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n")
	f.Add("# name\nn 1\n")
	f.Add("")
	f.Add("n 0\n")
	f.Add("n 2\n0 0\n")
	f.Add("n 2\n0 1\n0 1\n")
	f.Add("garbage\n")
	f.Add("n 99999999999999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(bytes.NewReader([]byte(input)))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparse own output: %v\noutput:\n%s", err, buf.String())
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed shape: %s vs %s", back, g)
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				t.Fatalf("edge %v lost in round trip", e)
			}
		}
	})
}

// forwardRows decodes fuzz bytes into an edge set on n nodes, reading them
// as a bitmap of the adjacency matrix's upper triangle (bit k, low bit
// first, is the k-th pair in row-major order), and lists the set in
// FromRows' order: rows ascending, each row's v ascending, u < v.
func forwardRows(n int, data []byte) [][2]NodeID {
	var edges [][2]NodeID
	k := 0
	for u := range n {
		for v := u + 1; v < n; v, k = v+1, k+1 {
			if k/8 < len(data) && data[k/8]>>(k%8)&1 == 1 {
				edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			}
		}
	}
	return edges
}

// FuzzRowStream checks the one-pass row constructor against FromStream.
// An edge set in forward-row order must build the same CSR through both,
// whatever the arena hint: none (negative or 0: every slot comes from
// append growth), half the directed count, the exact count, and an
// over-estimate. A stream with one edge
// broken (swapped, repeated, a self-loop, an endpoint out of range) and
// the raw decoded pairs, in whatever order they come, must get a typed
// error from FromRows and never a panic.
func FuzzRowStream(f *testing.F) {
	f.Add(uint8(4), []byte{0b101101}, uint8(0))
	f.Add(uint8(0), []byte{}, uint8(0))
	f.Add(uint8(1), []byte{}, uint8(1))
	f.Add(uint8(5), []byte{}, uint8(7))
	f.Add(uint8(2), []byte{1, 0}, uint8(2))
	f.Add(uint8(64), []byte{0, 63, 5, 9, 63, 62, 9, 5, 7, 7, 200, 13}, uint8(3))
	f.Add(uint8(9), []byte{3, 1, 3, 2, 0, 8, 8, 4, 4, 0}, uint8(4))
	f.Add(uint8(40), bytes.Repeat([]byte{0xff}, 100), uint8(9))
	f.Fuzz(func(t *testing.T, nb uint8, data []byte, fault uint8) {
		// 252 bytes hold the triangle of 64 nodes; the cap also keeps the
		// fuzzer's minimisation of long inputs short.
		n, data := int(nb)%65, data[:min(len(data), 256)]
		edges := forwardRows(n, data)
		want, err := FromStream("rows", n, replay(edges))
		if err != nil {
			t.Fatalf("FromStream rejected a simple edge set: %v", err)
		}
		for _, hint := range []int{-1, 0, len(edges), 2 * len(edges), 2*len(edges) + int(fault)} {
			got, err := FromRows("rows", n, hint, replay(edges))
			if err != nil {
				t.Fatalf("hint %d: %v", hint, err)
			}
			if !reflect.DeepEqual(got.CSR(), want.CSR()) || got.M() != want.M() || got.N() != n {
				t.Fatalf("hint %d: FromRows built %v, FromStream %v", hint, got.CSR(), want.CSR())
			}
		}

		if len(edges) > 0 {
			i := int(fault/5) % len(edges)
			bad := slices.Clone(edges)
			var wantErr error
			switch fault % 5 {
			case 0: // swapped pair
				bad[i] = [2]NodeID{bad[i][1], bad[i][0]}
				wantErr = ErrRowOrder
			case 1: // repeated edge
				bad = slices.Insert(bad, i, bad[i])
				wantErr = ErrRowOrder
			case 2: // self-loop
				bad[i][1] = bad[i][0]
				wantErr = ErrSelfLoop
			case 3: // endpoint past the last node
				bad[i][1] = NodeID(n + int(fault))
				wantErr = ErrNodeOutOfRange
			case 4: // negative endpoint
				bad[i][0] = -1 - NodeID(fault)
				wantErr = ErrNodeOutOfRange
			}
			if _, err := FromRows("rows", n, 2*len(edges), replay(bad)); !errors.Is(err, wantErr) {
				t.Fatalf("fault %d at edge %d of %v: err = %v, want %v", fault%5, i, edges, err, wantErr)
			}
		}

		var raw [][2]NodeID
		for i := 0; i+1 < len(data); i += 2 {
			raw = append(raw, [2]NodeID{NodeID(int8(data[i])), NodeID(int8(data[i+1]))})
		}
		got, err := FromRows("rows", n, int(fault), replay(raw))
		if err != nil {
			if !errors.Is(err, ErrRowOrder) && !errors.Is(err, ErrSelfLoop) && !errors.Is(err, ErrNodeOutOfRange) {
				t.Fatalf("raw stream %v: untyped error %v", raw, err)
			}
			return
		}
		want, err = FromStream("rows", n, replay(raw))
		if err != nil {
			t.Fatalf("FromRows accepted %v, FromStream rejected it: %v", raw, err)
		}
		if !reflect.DeepEqual(got.CSR(), want.CSR()) {
			t.Fatalf("raw stream %v: FromRows built %v, FromStream %v", raw, got.CSR(), want.CSR())
		}
	})
}
