package trace_test

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/trace"
)

func TestWriteSVGIsWellFormedXML(t *testing.T) {
	for _, rec := range floodTrace(t, gen.Cycle(6), 0) {
		var buf bytes.Buffer
		if err := trace.WriteSVG(&buf, gen.Cycle(6), rec, trace.SVGOptions{}); err != nil {
			t.Fatal(err)
		}
		decoder := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
		for {
			if _, err := decoder.Token(); err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("round %d produced malformed XML: %v\n%s", rec.Round, err, buf.String())
			}
		}
	}
}

func TestWriteSVGMarksSenders(t *testing.T) {
	// Figure 2 round 2: a and c send. Their nodes carry the double
	// outline (radius-20 circle); b does not.
	var buf bytes.Buffer
	if err := trace.WriteSVG(&buf, gen.Cycle(3), floodTrace(t, gen.Cycle(3), 1)[1], trace.SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, `r="20"`); got != 2 {
		t.Fatalf("double outlines = %d, want 2 (senders a and c)", got)
	}
	if got := strings.Count(out, "marker-end"); got != 2 {
		t.Fatalf("arrows = %d, want 2 (a->c, c->a)", got)
	}
	if !strings.Contains(out, ">a<") || !strings.Contains(out, ">c<") {
		t.Fatal("letter labels missing")
	}
	if !strings.Contains(out, "round 2") {
		t.Fatal("round caption missing")
	}
}

func TestWriteSVGOptions(t *testing.T) {
	var buf bytes.Buffer
	opts := trace.SVGOptions{Size: 200, Label: trace.Numbers}
	if err := trace.WriteSVG(&buf, gen.Path(3), floodTrace(t, gen.Path(3), 0)[0], opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `width="200"`) {
		t.Fatal("custom size ignored")
	}
	if !strings.Contains(out, ">0<") {
		t.Fatal("numeric labels ignored")
	}
}

func TestWriteSVGSingleNode(t *testing.T) {
	g, err := graph.FromEdges("", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// A run with no rounds still allows rendering an empty round record.
	if err := trace.WriteSVG(&buf, g, engine.RoundRecord{Round: 1}, trace.SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG produced")
	}
}
