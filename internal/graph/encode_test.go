package graph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSquare(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges("square", 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildSquare(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back.N() != g.N() || back.M() != g.M() || back.Name() != g.Name() {
		t.Fatalf("round trip changed shape: %s vs %s", back, g)
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e.U, e.V) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestEdgeListFormat(t *testing.T) {
	g := buildSquare(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "# square\nn 4\n0 1\n0 3\n1 2\n2 3\n"
	if buf.String() != want {
		t.Fatalf("edge list = %q, want %q", buf.String(), want)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"edgeBeforeN":    "0 1\n",
		"badCount":       "n x\n",
		"duplicateCount": "n 2\nn 2\n",
		"threeFields":    "n 3\n0 1 2\n",
		"badEndpoint":    "n 3\na 1\n",
		"selfLoop":       "n 3\n1 1\n",
		"outOfRange":     "n 3\n0 5\n",
		"negativeCount":  "n -3\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
				t.Fatalf("ReadEdgeList(%q) succeeded, want error", input)
			}
		})
	}
}

func TestReadEdgeListSkipsBlankAndComments(t *testing.T) {
	input := "# my graph\n\n# another comment\nn 3\n\n0 1\n# mid comment\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Name() != "my graph" {
		t.Fatalf("parsed %s name=%q", g, g.Name())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildSquare(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.N() != g.N() || back.M() != g.M() || back.Name() != g.Name() {
		t.Fatalf("JSON round trip changed shape: %s vs %s", &back, g)
	}
}

func TestJSONUnmarshalRejectsBadEdges(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"n":2,"edges":[[0,5]]}`), &g); err == nil {
		t.Fatal("unmarshal out-of-range edge succeeded")
	}
	if err := json.Unmarshal([]byte(`{"n":2,"edges":`), &g); err == nil {
		t.Fatal("unmarshal truncated JSON succeeded")
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildSquare(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, map[NodeID]bool{1: true, 2: false}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"square\"", "0 -- 1;", "2 -- 3;", "1 [style=bold"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "2 [style=bold") {
		t.Error("DOT highlighted node 2, which was mapped to false")
	}
}

func TestWriteDOTSanitizesName(t *testing.T) {
	g, err := FromEdges(`bad"name {x}`, 2, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"bad"name`) {
		t.Fatalf("DOT name not sanitised: %s", buf.String())
	}
}

func TestEdgeListRoundTripRandom(t *testing.T) {
	// Property: WriteEdgeList / ReadEdgeList is the identity on random
	// graphs.
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(25)
		b := NewBuilder(n).Name("rt")
		for i := 0; i < n*2; i++ {
			u, v := NodeID(local.Intn(n)), NodeID(local.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if back.N() != g.N() || back.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
