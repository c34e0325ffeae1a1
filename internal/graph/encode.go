package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The text edge-list format is line-oriented:
//
//	# comment
//	n <nodeCount>
//	<u> <v>
//	...
//
// It round-trips through WriteEdgeList / ReadEdgeList and is the on-disk
// format accepted by the cmd/afsim CLI.

// WriteEdgeList writes g in the text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", g.Name()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// The edge-list reader's caps bound what a hostile or runaway file can make
// it allocate. maxEdgeListNodes matches the sparse generators' node cap
// (gen's maxSparseNodes) and is checked on the node-count line, before the
// per-node arrays exist; maxEdgeListEdges matches the streamed generators'
// edge cap (gen's maxStreamEdges) and is checked per edge line, before the
// 16-byte-per-edge pair array grows past it. maxEdgeListEdges is a var,
// not a const, so tests can lower it without 2^26-line fixtures.
const maxEdgeListNodes = 1 << 24

var maxEdgeListEdges = 1 << 26

// ErrTooManyNodes is returned by ReadEdgeList when the node-count line
// exceeds the reader's 2^24-node cap.
var ErrTooManyNodes = errors.New("edge list declares more than 2^24 nodes")

// ReadEdgeList parses the text edge-list format produced by WriteEdgeList
// and builds the graph through FromStream: endpoints are collected into one
// packed pair array (16 bytes per edge) and replayed into the CSR arena, so
// peak memory is pairs + CSR. It is the one reader behind afsim/afviz
// -file and the edgefile graph family. A node count above 2^24 fails with
// ErrTooManyNodes before anything is allocated for the nodes, and more
// than 2^26 edge lines fail fast with ErrTooManyEdges.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		pairs  []NodeID
		name   string
		n      int
		haveN  bool
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if name == "" {
				name = strings.TrimSpace(strings.TrimPrefix(line, "#"))
			}
			continue
		case strings.HasPrefix(line, "n "):
			if haveN {
				return nil, fmt.Errorf("edge list line %d: duplicate node-count line", lineNo)
			}
			count, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "n ")))
			if err != nil {
				return nil, fmt.Errorf("edge list line %d: parse node count: %w", lineNo, err)
			}
			if count > maxEdgeListNodes {
				return nil, fmt.Errorf("edge list line %d: %d nodes: %w", lineNo, count, ErrTooManyNodes)
			}
			n, haveN = count, true
		default:
			if !haveN {
				return nil, fmt.Errorf("edge list line %d: edge before node-count line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("edge list line %d: want %q, got %q", lineNo, "u v", line)
			}
			u, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("edge list line %d: parse endpoint: %w", lineNo, err)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("edge list line %d: parse endpoint: %w", lineNo, err)
			}
			if len(pairs) >= 2*maxEdgeListEdges {
				return nil, fmt.Errorf("edge list line %d: more than %d edges: %w", lineNo, maxEdgeListEdges, ErrTooManyEdges)
			}
			pairs = append(pairs, NodeID(u), NodeID(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edge list: scan: %w", err)
	}
	if !haveN {
		return nil, fmt.Errorf("edge list: missing node-count line")
	}
	return FromStream(name, n, func(add func(u, v NodeID)) error {
		for i := 0; i < len(pairs); i += 2 {
			add(pairs[i], pairs[i+1])
		}
		return nil
	})
}

// graphJSON is the stable JSON wire form of a Graph.
type graphJSON struct {
	Name  string   `json:"name,omitempty"`
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes the graph as {"name", "n", "edges"}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	edges := g.Edges()
	out := graphJSON{Name: g.name, N: g.N(), Edges: make([][2]int, len(edges))}
	for i, e := range edges {
		out.Edges[i] = [2]int{int(e.U), int(e.V)}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the form produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("graph json: %w", err)
	}
	b := NewBuilder(in.N).Name(in.Name)
	for _, e := range in.Edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	built, err := b.Build()
	if err != nil {
		return fmt.Errorf("graph json: %w", err)
	}
	*g = *built
	return nil
}

// WriteDOT writes g in Graphviz DOT format, with optional per-node
// highlighting (used by cmd/afviz to mark the sending nodes of a round, like
// the circled nodes in the paper's figures).
func WriteDOT(w io.Writer, g *Graph, highlight map[NodeID]bool) error {
	bw := bufio.NewWriter(w)
	name := g.Name()
	if name == "" {
		name = "G"
	}
	if _, err := fmt.Fprintf(bw, "graph %q {\n", sanitizeDOTName(name)); err != nil {
		return err
	}
	hl := make([]NodeID, 0, len(highlight))
	for v, on := range highlight {
		if on {
			hl = append(hl, v)
		}
	}
	slices.Sort(hl)
	for _, v := range hl {
		if _, err := fmt.Fprintf(bw, "  %d [style=bold, peripheries=2];\n", v); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", e.U, e.V); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}

func sanitizeDOTName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
