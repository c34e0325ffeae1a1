// Package trace renders and exports execution traces. Its ASCII renderers
// reproduce the content of the paper's figures: for each round, the set of
// sending nodes (the circled nodes of Figures 1-3 and 5) and the edges the
// message crosses; the timeline view shows per-node receive/send activity
// over the whole run.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Labeler maps node IDs to display labels. The paper labels nodes a, b,
// c, ...; Letters reproduces that for small graphs.
type Labeler func(graph.NodeID) string

// Numbers labels nodes by their numeric ID.
func Numbers(v graph.NodeID) string {
	return strconv.Itoa(int(v))
}

// Letters labels nodes a, b, ..., z, then aa, ab, ... like spreadsheet
// columns, matching the paper's figure labels for small graphs.
func Letters(v graph.NodeID) string {
	if v < 0 {
		return strconv.Itoa(int(v))
	}
	n := int(v)
	var sb []byte
	for {
		sb = append([]byte{byte('a' + n%26)}, sb...)
		n = n/26 - 1
		if n < 0 {
			break
		}
	}
	return string(sb)
}

// RenderRounds writes one line per round in the style of the paper's
// figures: the circled (sending) nodes followed by the message edges.
//
//	round 1: sending {b}  edges b->a b->c
//	round 2: sending {a,c}  edges a->c c->a
func RenderRounds(w io.Writer, records []engine.RoundRecord, label Labeler) error {
	if label == nil {
		label = Numbers
	}
	for _, rec := range records {
		senders := rec.Senders()
		names := make([]string, len(senders))
		for i, s := range senders {
			names[i] = label(s)
		}
		var edges []string
		for _, s := range rec.Sends {
			edges = append(edges, label(s.From)+"->"+label(s.To))
		}
		if _, err := fmt.Fprintf(w, "round %d: sending {%s}  edges %s\n",
			rec.Round, strings.Join(names, ","), strings.Join(edges, " ")); err != nil {
			return err
		}
	}
	return nil
}

// Timeline writes a per-node activity grid: one row per node, one column
// per round, with "S" where the node sends, "R" where it receives, "B"
// where it does both, and "." when idle. The origin's spontaneous round-1
// send appears as S.
func Timeline(w io.Writer, g *graph.Graph, records []engine.RoundRecord, label Labeler) error {
	if label == nil {
		label = Numbers
	}
	rounds := len(records)
	sendAt := make([]map[int]bool, g.N())
	recvAt := make([]map[int]bool, g.N())
	for v := 0; v < g.N(); v++ {
		sendAt[v] = map[int]bool{}
		recvAt[v] = map[int]bool{}
	}
	for _, rec := range records {
		for _, s := range rec.Sends {
			sendAt[s.From][rec.Round] = true
			recvAt[s.To][rec.Round] = true
		}
	}
	// Header.
	if _, err := fmt.Fprintf(w, "%-6s", "node"); err != nil {
		return err
	}
	for r := 1; r <= rounds; r++ {
		if _, err := fmt.Fprintf(w, "%3d", r); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if _, err := fmt.Fprintf(w, "%-6s", label(graph.NodeID(v))); err != nil {
			return err
		}
		for r := 1; r <= rounds; r++ {
			mark := "."
			switch {
			case sendAt[v][r] && recvAt[v][r]:
				mark = "B"
			case sendAt[v][r]:
				mark = "S"
			case recvAt[v][r]:
				mark = "R"
			}
			if _, err := fmt.Fprintf(w, "%3s", mark); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports a trace as rows of (round, from, to).
func WriteCSV(w io.Writer, records []engine.RoundRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "from", "to"}); err != nil {
		return err
	}
	for _, rec := range records {
		for _, s := range rec.Sends {
			row := []string{
				strconv.Itoa(rec.Round),
				strconv.Itoa(int(s.From)),
				strconv.Itoa(int(s.To)),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports a trace as a JSON array of round records.
func WriteJSON(w io.Writer, records []engine.RoundRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
