// Package cli holds the small helpers shared by the cmd/ binaries: graph
// loading through the gen spec registry, legacy -topo aliases, and legacy
// -async adversary aliases over the model-spec registry. It exists so the
// binaries stay single-purpose mains. (Engine, protocol, and model
// selection live in the sim façade.)
package cli

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
)

// topoAliases maps legacy -topo names to spec templates over the single -n
// size knob. New call sites should pass full specs (-graph / LoadGraphSpec);
// the aliases keep every historical -topo/-n invocation working on top of
// the registry.
var topoAliases = map[string]func(n int) string{
	"path":       func(n int) string { return fmt.Sprintf("path:n=%d", n) },
	"cycle":      func(n int) string { return fmt.Sprintf("cycle:n=%d", n) },
	"complete":   func(n int) string { return fmt.Sprintf("complete:n=%d", n) },
	"clique":     func(n int) string { return fmt.Sprintf("complete:n=%d", n) },
	"star":       func(n int) string { return fmt.Sprintf("star:n=%d", n) },
	"wheel":      func(n int) string { return fmt.Sprintf("wheel:n=%d", n) },
	"grid":       func(n int) string { return fmt.Sprintf("grid:rows=%d,cols=%d", n, n) },
	"torus":      func(n int) string { return fmt.Sprintf("torus:rows=%d,cols=%d", n, n) },
	"hypercube":  func(n int) string { return fmt.Sprintf("hypercube:d=%d", n) },
	"bintree":    func(n int) string { return fmt.Sprintf("bintree:levels=%d", n) },
	"petersen":   func(int) string { return "petersen" },
	"lollipop":   func(n int) string { return fmt.Sprintf("lollipop:k=4,path=%d", n) },
	"barbell":    func(n int) string { return fmt.Sprintf("barbell:k=4,path=%d", n) },
	"randomtree": func(n int) string { return fmt.Sprintf("tree:n=%d", n) },
	"random": func(n int) string {
		// The historical default density: expected degree ~4.
		return fmt.Sprintf("randconnected:n=%d,p=%g", n, 4/float64(n+1))
	},
}

// TopologyNames lists the legacy -topo alias names, sorted. Full spec
// strings (gen.Families) are additionally accepted anywhere a -topo name
// is.
func TopologyNames() []string {
	names := make([]string, 0, len(topoAliases))
	for name := range topoAliases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LoadGraph resolves the legacy -topo/-n or -file flags into a graph,
// seeding random families with 1 (the historical fixed seed). New call
// sites should use LoadGraphSpec.
func LoadGraph(topo string, n int, file string) (*graph.Graph, error) {
	return LoadGraphSpec("", topo, n, file, 1)
}

// LoadGraphSpec resolves the graph-selection flags into a graph: exactly
// one of spec (-graph, a gen spec string), topo (-topo, a legacy alias or a
// spec string, sized by n), or file (-file, an edge-list path) must be set.
// Random families derive all randomness from seed.
func LoadGraphSpec(spec, topo string, n int, file string, seed int64) (*graph.Graph, error) {
	set := 0
	for _, s := range []string{spec, topo, file} {
		if s != "" {
			set++
		}
	}
	switch {
	case set > 1:
		return nil, fmt.Errorf("use exactly one of -graph, -topo, or -file")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", file, err)
		}
		return g, nil
	case spec != "":
		return gen.Build(spec, seed)
	case topo != "":
		if alias, ok := topoAliases[strings.ToLower(strings.TrimSpace(topo))]; ok {
			return gen.Build(alias(n), seed)
		}
		// Not an alias: accept a full spec string in -topo too, so the
		// two flags converge on the same grammar — but only a spec with
		// explicit parameters (or a parameter-less family). A bare
		// family name like "tree" would silently discard -n and build
		// the default size, so it stays an error here.
		if spec, err := gen.Parse(topo); err == nil {
			if fam, ok := gen.Families.Lookup(spec.Family); ok && len(fam.Params) > 0 && len(spec.Params) == 0 {
				return nil, fmt.Errorf("topology %q is a graph family; -n does not apply to specs, spell out its parameters (e.g. %q) or use an alias (%s)",
					topo, spec.Family+":"+fam.Params[0].Name+"=8", strings.Join(TopologyNames(), ", "))
			}
			return gen.New(spec, seed)
		}
		return nil, fmt.Errorf("unknown topology %q (aliases: %s; or a graph spec, see -list)",
			topo, strings.Join(TopologyNames(), ", "))
	default:
		return nil, fmt.Errorf("need -graph, -topo, or -file")
	}
}

// asyncAliases maps the historical -async adversary names onto model specs
// with the historical parameter choices baked in. New call sites should
// pass full model specs (-model).
var asyncAliases = map[string]string{
	"sync":      "adversary:sync",
	"collision": "adversary:collision",
	"uniform":   "adversary:uniform:extra=2",
	"random":    "adversary:random:max=3",
}

// AsyncAlias resolves a legacy -async adversary name into its model spec.
// Full "adversary:..." specs are additionally accepted, so the two flags
// converge on the same grammar.
func AsyncAlias(name string) (string, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if spec, ok := asyncAliases[key]; ok {
		return spec, nil
	}
	if strings.HasPrefix(key, "adversary:") {
		return key, nil
	}
	return "", fmt.Errorf("unknown adversary %q (want sync, collision, uniform, random, or an adversary:... model spec)", name)
}
