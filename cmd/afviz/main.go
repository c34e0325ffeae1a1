// Command afviz renders amnesiac-flooding executions: per-round ASCII
// diagrams in the style of the paper's figures, a per-node timeline grid,
// CSV/JSON trace export, and per-round Graphviz DOT files with the sending
// nodes highlighted (the "circled" nodes of Figures 1-3).
//
// Topologies come from the graph-spec registry (-graph family:key=value,...
// — see internal/graph/gen and afviz -list) or from a legacy alias (-topo
// with the -n size knob), matching afsim.
//
// Examples:
//
//	afviz -list
//	afviz -topo cycle -n 6 -source 0
//	afviz -graph grid:rows=4,cols=5 -source 7 -format timeline
//	afviz -graph gnp:n=24,p=0.2,connect=true -seed 7 -format rounds
//	afviz -topo cycle -n 3 -source 1 -format csv
//	afviz -topo path -n 4 -source 1 -format dot -out ./frames
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"amnesiacflood/internal/cli"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"

	// Registers the amnesiac protocol, which afviz runs by name.
	_ "amnesiacflood/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("afviz", flag.ContinueOnError)
	graphSpec := fs.String("graph", "", "graph spec family:key=value,... (families: "+strings.Join(gen.Families.Names(), ", ")+"; see -list)")
	topo := fs.String("topo", "", "legacy topology alias sized by -n: "+strings.Join(cli.TopologyNames(), ", "))
	n := fs.Int("n", 8, "topology size parameter for -topo aliases")
	file := fs.String("file", "", "edge-list file (alternative to -graph/-topo)")
	list := fs.Bool("list", false, "list registered graph families and output formats, then exit")
	sourceFlag := fs.Int("source", 0, "origin node")
	seed := fs.Int64("seed", 1, "seed for random graph families")
	format := fs.String("format", "rounds", "output: rounds, timeline, csv, json, dot, or svg")
	out := fs.String("out", ".", "output directory for -format dot/svg frames")
	engineName := fs.String("engine", sim.Sequential.String(), "engine: "+strings.Join(sim.EngineNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printRegistries(os.Stdout)
	}

	g, err := cli.LoadGraphSpec(*graphSpec, *topo, *n, *file, *seed)
	if err != nil {
		return err
	}
	source := graph.NodeID(*sourceFlag)
	if !g.HasNode(source) {
		return fmt.Errorf("source %d is not a node of %s", source, g)
	}
	kind, err := sim.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithEngine(kind),
		sim.WithOrigins(source),
		sim.WithTrace(true),
	)
	if err != nil {
		return err
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		return err
	}
	label := trace.Numbers
	if g.N() <= 26 {
		label = trace.Letters
	}

	switch *format {
	case "rounds":
		fmt.Printf("amnesiac flooding on %s from %s: %d rounds, %d messages\n",
			g, label(source), res.Rounds, res.TotalMessages)
		return trace.RenderRounds(os.Stdout, res.Trace, label)
	case "timeline":
		return trace.Timeline(os.Stdout, g, res.Trace, label)
	case "csv":
		return trace.WriteCSV(os.Stdout, res.Trace)
	case "json":
		return trace.WriteJSON(os.Stdout, res.Trace)
	case "dot":
		return writeDOTFrames(*out, g, res.Trace)
	case "svg":
		return writeSVGFrames(*out, g, res.Trace, label)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// printRegistries renders the registries afviz can address: graph families
// with their typed parameters, engines, and output formats.
func printRegistries(w io.Writer) error {
	_, err := fmt.Fprint(w,
		"graph families (-graph family:key=value,...):\n", gen.Families.Listing(),
		"engines (-engine): ", strings.Join(sim.EngineNames(), ", "), "\n",
		"formats (-format): rounds, timeline, csv, json, dot, svg\n")
	return err
}

// writeSVGFrames emits one SVG per round in the paper's figure style:
// circular layout, message arrows, senders double-circled.
func writeSVGFrames(dir string, g *graph.Graph, records []engine.RoundRecord, label trace.Labeler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rec := range records {
		path := filepath.Join(dir, fmt.Sprintf("round%03d.svg", rec.Round))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteSVG(f, g, rec, trace.SVGOptions{Label: label}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (senders: %v)\n", path, rec.Senders())
	}
	return nil
}

// writeDOTFrames emits one DOT file per round with that round's senders
// highlighted, reproducing the circled nodes of the paper's figures.
func writeDOTFrames(dir string, g *graph.Graph, records []engine.RoundRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rec := range records {
		highlight := map[graph.NodeID]bool{}
		for _, s := range rec.Senders() {
			highlight[s] = true
		}
		path := filepath.Join(dir, fmt.Sprintf("round%03d.dot", rec.Round))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := graph.WriteDOT(f, g, highlight); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (senders: %v)\n", path, rec.Senders())
	}
	return nil
}
