package graph

import (
	"bytes"
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
