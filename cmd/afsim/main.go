// Command afsim runs a single flooding simulation and prints the result.
//
// Topologies come from the graph-spec registry (-graph family:key=value,...
// — see internal/graph/gen and afsim -list), from a legacy alias (-topo
// with the -n size knob), or from an edge-list file (-file, format of
// internal/graph.WriteEdgeList). Protocols come from the sim façade's
// registry — every registered protocol runs on every engine — and the
// execution model is a registry axis of its own (-model: "sync", an
// "adversary:..." spec for the paper's asynchronous variant, or a
// "schedule:..." spec for dynamic networks, message loss and crashes).
//
// Examples:
//
//	afsim -list
//	afsim -graph grid:rows=4,cols=5 -analyze bipartite -engine fast
//	afsim -graph gnp:n=200,p=0.05,connect=true -seed 7 -source 0
//	afsim -graph cycle:n=65 -analyze coverage,termination,bipartite
//	afsim -topo cycle -n 6 -source 0 -render
//	afsim -topo path -n 4 -source 1 -engine channels -render
//	afsim -topo cycle -n 12 -origins 0,3 -protocol multiflood
//	afsim -topo cycle -n 6 -source 0 -model schedule:loss:p=0.05 -maxrounds 512
//	afsim -topo cycle -n 3 -source 1 -model adversary:collision
//	afsim -topo cycle -n 4 -source 0 -model schedule:outage:round=1,u=0,v=3
//	afsim -file mygraph.txt -source 0 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"

	"amnesiacflood/internal/cli"

	// Self-registering protocols and -model families: importing them adds
	// them to the sim registry, which is all the wiring -protocol and
	// -model need.
	_ "amnesiacflood/internal/registry/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("afsim", flag.ContinueOnError)
	graphSpec := fs.String("graph", "", "graph spec family:key=value,... (families: "+strings.Join(gen.Families.Names(), ", ")+"; see -list)")
	topo := fs.String("topo", "", "legacy topology alias sized by -n: "+strings.Join(cli.TopologyNames(), ", "))
	n := fs.Int("n", 8, "topology size parameter for -topo aliases")
	file := fs.String("file", "", "edge-list file (alternative to -graph/-topo)")
	list := fs.Bool("list", false, "list registered graph families, protocols, engines, models, and analyses, then exit")
	sourceFlag := fs.Int("source", 0, "origin node")
	originsFlag := fs.String("origins", "", "comma-separated origin nodes (multi-source; overrides -source)")
	protocol := fs.String("protocol", "amnesiac", "protocol: "+strings.Join(sim.Protocols.Names(), ", "))
	engineName := fs.String("engine", "sequential", "engine: "+strings.Join(sim.EngineNames(), ", "))
	modelSpec := fs.String("model", "", "execution model spec: sync (default), adversary:..., or schedule:... (see -list)")
	analyze := fs.String("analyze", "", "streaming analyses, semicolon- or comma-separated, e.g. \"coverage;termination\" or \"quantiles:metric=messages;coverage\" (see -list)")
	asyncAdv := fs.String("async", "", "legacy alias for -model adversary:...: sync, collision, uniform, random")
	seed := fs.Int64("seed", 1, "seed for random graphs and random models")
	maxRounds := fs.Int("maxrounds", 0, "round limit (0 = default)")
	render := fs.Bool("render", false, "print the per-round trace")
	timeline := fs.Bool("timeline", false, "print the per-node timeline grid")
	predict := fs.Bool("predict", false, "compare the double-cover prediction against the simulation (amnesiac protocol, sync model)")
	letters := fs.Bool("letters", true, "label nodes a,b,c,... like the paper")
	asJSON := fs.Bool("json", false, "print the result as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printRegistries(os.Stdout)
	}

	if *asyncAdv != "" {
		if *modelSpec != "" {
			return fmt.Errorf("use either -model or the legacy -async alias, not both")
		}
		spec, err := cli.AsyncAlias(*asyncAdv)
		if err != nil {
			return err
		}
		*modelSpec = spec
	}
	// Parse the model up front so flag validation (-predict, -timeline)
	// happens before any simulation runs and an explicit "-model sync"
	// behaves exactly like the default.
	mdl := model.SyncSpec()
	if *modelSpec != "" {
		parsed, err := model.Parse(*modelSpec)
		if err != nil {
			return err
		}
		mdl = parsed
	}

	g, err := cli.LoadGraphSpec(*graphSpec, *topo, *n, *file, *seed)
	if err != nil {
		return err
	}
	origins, err := parseOrigins(g, *sourceFlag, *originsFlag)
	if err != nil {
		return err
	}
	label := trace.Numbers
	if *letters && g.N() <= 26 {
		label = trace.Letters
	}

	if *predict {
		if *protocol != "amnesiac" || !mdl.IsSync() {
			return fmt.Errorf("-predict needs the amnesiac protocol and the sync model")
		}
		return runPredict(g, origins, label)
	}
	if *timeline && !mdl.IsSync() {
		return fmt.Errorf("-timeline needs the sync model (the timeline grid assumes synchronous receipt analysis)")
	}

	kind, err := sim.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	sessOpts := []sim.Option{
		sim.WithProtocol(*protocol),
		sim.WithEngine(kind),
		sim.WithModel(mdl.String()),
		sim.WithOrigins(origins...),
		sim.WithSeed(*seed),
		sim.WithMaxRounds(*maxRounds),
		// Record a trace only for the outputs that print it, and run every
		// analysis to the natural end, as a traced run would.
		sim.WithTrace(*render || *timeline || *asJSON),
		sim.WithAnalysisStop(false),
	}
	if specs := splitAnalyses(*analyze); len(specs) > 0 {
		sessOpts = append(sessOpts, sim.WithAnalysis(specs...))
	}
	sess, err := sim.New(g, sessOpts...)
	if err != nil {
		return err
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("%s on %s from %s via %s under %s: %s rounds=%d messages=%d (%.3fms)\n",
		res.Protocol, g, labelAll(origins, label), res.Engine, res.Model,
		res.Outcome, res.Rounds, res.TotalMessages, float64(res.WallTime.Microseconds())/1000)
	if res.Lost > 0 {
		fmt.Printf("messages lost to dead edges: %d\n", res.Lost)
	}
	if res.Certificate != nil {
		fmt.Printf("non-termination certificate: configuration at round %d recurs at round %d (period %d)\n",
			res.Certificate.Start, res.Certificate.Start+res.Certificate.Length, res.Certificate.Length)
	}
	// One parity BFS from all origins and a two-sweep bound, O(n+m): the
	// exact diameter would cost a BFS per node. For one origin, an exact
	// window means its component is bipartite.
	var cover doublecover.Arena
	cover.Run(g, origins...)
	of, exact := "source", "bipartite"
	if len(origins) > 1 {
		of, exact = "origins", "same-colour-class"
	}
	fmt.Printf("graph: eccentricity(%s)=%d %s=%t amnesiac-rounds(%s)=%d diameter>=%d\n",
		of, cover.Eccentricity(), exact, cover.Exact(), of, cover.Rounds(), algo.DiameterLowerBound(g))
	if len(res.Metrics) > 0 {
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Println("analysis metrics:")
		for _, k := range keys {
			fmt.Printf("  %-28s %g\n", k, res.Metrics[k])
		}
		if witnesses, ok := sess.Witnesses(); ok && len(witnesses) > 0 {
			fmt.Printf("  odd-cycle witnesses: %s\n", labelAll(witnesses, label))
		}
	}
	if *render {
		if err := trace.RenderRounds(os.Stdout, res.Trace, label); err != nil {
			return err
		}
	}
	if *timeline {
		if err := trace.Timeline(os.Stdout, g, res.Trace, label); err != nil {
			return err
		}
	}
	return nil
}

// printRegistries renders every registry the CLI can address: graph
// families with their typed parameters, protocols, engines, analyses, and
// execution models.
func printRegistries(w io.Writer) error {
	_, err := fmt.Fprint(w,
		"graph families (-graph family:key=value,...):\n", gen.Families.Listing(),
		"protocols (-protocol): ", strings.Join(sim.Protocols.Names(), ", "), "\n",
		"engines (-engine): ", strings.Join(sim.EngineNames(), ", "), "\n",
		"analyses (-analyze family:key=value,...; metrics keyed family.metric):\n", analysis.Families.Listing(),
		"execution models (-model kind:family:key=value,...):\n",
		"  sync — the paper's synchronous model (default; runs on every -engine)\n",
		model.Adversaries.Listing(), model.Schedules.Listing())
	return err
}

// splitAnalyses splits the -analyze flag into analysis specs. Semicolons
// separate specs unambiguously (the afbench -analyses convention — commas
// belong to the spec grammar's parameter lists). For the common
// parameterless case, commas also separate specs: a comma-delimited
// segment starts a new spec when its head names a registered family, and
// otherwise continues the previous spec's parameter list.
func splitAnalyses(s string) []string {
	var out []string
	for _, group := range strings.Split(s, ";") {
		start := len(out)
		for _, part := range strings.Split(group, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			head := part
			if i := strings.IndexAny(head, ":="); i >= 0 {
				head = head[:i]
			}
			_, isFamily := analysis.Families.Lookup(strings.TrimSpace(head))
			if isFamily || len(out) == start {
				out = append(out, part)
				continue
			}
			out[len(out)-1] += "," + part
		}
	}
	return out
}

// parseOrigins resolves -origins (comma-separated) or falls back to
// -source, validating every node against the graph.
func parseOrigins(g *graph.Graph, source int, originsFlag string) ([]graph.NodeID, error) {
	var origins []graph.NodeID
	if originsFlag == "" {
		origins = []graph.NodeID{graph.NodeID(source)}
	} else {
		for _, part := range strings.Split(originsFlag, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("parse -origins entry %q: %w", part, err)
			}
			origins = append(origins, graph.NodeID(id))
		}
		if len(origins) == 0 {
			return nil, fmt.Errorf("-origins %q contains no nodes", originsFlag)
		}
	}
	for _, o := range origins {
		if !g.HasNode(o) {
			return nil, fmt.Errorf("origin %d is not a node of %s", o, g)
		}
	}
	return origins, nil
}

// labelAll renders an origin list with the chosen labeler.
func labelAll(origins []graph.NodeID, label trace.Labeler) string {
	parts := make([]string, len(origins))
	for i, o := range origins {
		parts[i] = label(o)
	}
	return strings.Join(parts, ",")
}

// runPredict prints the double-cover forecast next to the measured run and
// fails loudly if they ever disagree (they cannot, per experiment E11).
func runPredict(g *graph.Graph, origins []graph.NodeID, label trace.Labeler) error {
	pred := doublecover.Predict(g, origins...)
	res, err := engine.Run(context.Background(), g, core.MustNewFlood(g, origins...), engine.Options{Trace: true})
	if err != nil {
		return err
	}
	same := pred.Rounds == res.Rounds &&
		pred.TotalMessages == res.TotalMessages &&
		engine.EqualTraces(pred.Trace, res.Trace)
	fmt.Printf("double-cover prediction for %s from %s:\n", g, labelAll(origins, label))
	fmt.Printf("  predicted: rounds=%d messages=%d\n", pred.Rounds, pred.TotalMessages)
	fmt.Printf("  measured:  rounds=%d messages=%d\n", res.Rounds, res.TotalMessages)
	fmt.Printf("  traces identical: %t\n", same)
	if second := pred.SecondReceivers(); len(second) > 0 {
		fmt.Printf("  nodes predicted to receive twice: %d (both parities reachable)\n", len(second))
	} else {
		fmt.Println("  every node predicted to receive exactly once (bipartite behaviour)")
	}
	if !same {
		return fmt.Errorf("prediction diverged from simulation — this is a bug")
	}
	return nil
}
