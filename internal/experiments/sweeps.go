package experiments

import (
	"fmt"
	"math/rand"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/theory"
)

// namedGraph couples an instance with the family label used in tables. The
// graph itself is built from a registry spec, so g.Name() is the exact
// canonical spec string and every table row is attributable to a precise
// instance.
type namedGraph struct {
	family string
	g      *graph.Graph
}

// specInstance declares one sweep entry: a table label plus a registry
// spec.
type specInstance struct {
	family string
	spec   string
}

// buildAll materialises spec instances through the registry. The i-th
// instance is seeded with cfg.Seed+base+i, so random families vary with the
// configured seed but remain reproducible, and distinct instances of the
// same family get distinct graphs. Specs the registry rejects (e.g. -scale
// pushing a family past its size cap) surface as errors, not panics.
func buildAll(cfg Config, base int64, instances []specInstance) ([]namedGraph, error) {
	out := make([]namedGraph, len(instances))
	for i, inst := range instances {
		g, err := gen.Build(inst.spec, cfg.Seed+base+int64(i))
		if err != nil {
			return nil, err
		}
		out[i] = namedGraph{family: inst.family, g: g}
	}
	return out, nil
}

// bipartiteFamilies returns the bipartite instance sweep of experiment E4.
func bipartiteFamilies(cfg Config) ([]namedGraph, error) {
	n := cfg.scaled(1)
	return buildAll(cfg, 100, []specInstance{
		{"path", fmt.Sprintf("path:n=%d", 16*n)},
		{"path", fmt.Sprintf("path:n=%d", 256*n)},
		{"evenCycle", fmt.Sprintf("cycle:n=%d", 16*n)},
		{"evenCycle", fmt.Sprintf("cycle:n=%d", 256*n)},
		{"star", fmt.Sprintf("star:n=%d", 64*n)},
		{"grid", fmt.Sprintf("grid:rows=%d,cols=%d", 8*n, 8*n)},
		{"grid", fmt.Sprintf("grid:rows=%d,cols=%d", 16*n, 32*n)},
		{"binaryTree", "bintree:levels=7"},
		{"hypercube", "hypercube:d=6"},
		{"hypercube", "hypercube:d=9"},
		{"completeBipartite", fmt.Sprintf("bipartite:a=%d,b=%d", 12*n, 20*n)},
		{"randomTree", fmt.Sprintf("tree:n=%d", 512*n)},
		{"randomBipartite", fmt.Sprintf("randbipartite:a=%d,b=%d,p=0.05", 40*n, 56*n)},
	})
}

// nonBipartiteInstance is an E5 sweep entry. strictAboveDiameter marks the
// source-symmetric classical families on which termination provably takes
// more than D rounds from every source; on irregular instances the paper's
// parenthetical "strictly larger than D" does not hold pointwise (see the
// E5 note) and is only reported, not asserted.
type nonBipartiteInstance struct {
	family              string
	g                   *graph.Graph
	strictAboveDiameter bool
}

// nonBipartiteFamilies returns the non-bipartite sweep of experiment E5.
func nonBipartiteFamilies(cfg Config) ([]nonBipartiteInstance, error) {
	n := cfg.scaled(1)
	strict := map[string]bool{"triangle": true, "oddCycle": true, "clique": true,
		"wheel": true, "petersen": true, "oddTorus": true}
	instances, err := buildAll(cfg, 200, []specInstance{
		{"triangle", "cycle:n=3"},
		{"oddCycle", fmt.Sprintf("cycle:n=%d", 16*n+1)}, // odd for every scale
		{"oddCycle", fmt.Sprintf("cycle:n=%d", 256*n+1)},
		{"clique", fmt.Sprintf("complete:n=%d", 8*n)},
		{"clique", fmt.Sprintf("complete:n=%d", 32*n)},
		{"wheel", fmt.Sprintf("wheel:n=%d", 32*n+1)},
		{"petersen", "petersen"},
		{"oddTorus", "torus:rows=5,cols=7"},
		{"lollipop", fmt.Sprintf("lollipop:k=5,path=%d", 20*n)},
		{"barbell", fmt.Sprintf("barbell:k=5,path=%d", 16*n)},
		{"randomNonBipartite", fmt.Sprintf("randnonbipartite:n=%d,p=0.02", 128*n)},
		{"randomNonBipartite", fmt.Sprintf("randnonbipartite:n=%d,p=0.005", 512*n)},
	})
	if err != nil {
		return nil, err
	}
	out := make([]nonBipartiteInstance, len(instances))
	for i, inst := range instances {
		out[i] = nonBipartiteInstance{family: inst.family, g: inst.g, strictAboveDiameter: strict[inst.family]}
	}
	return out, nil
}

// pickSources returns a deterministic spread of source nodes for an
// instance: node 0, a middle node, the last node, and two random ones.
func pickSources(g *graph.Graph, rng *rand.Rand) []graph.NodeID {
	if g.N() == 0 {
		return nil
	}
	candidates := []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)}
	for i := 0; i < 2; i++ {
		candidates = append(candidates, graph.NodeID(rng.Intn(g.N())))
	}
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, s := range candidates {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// BipartiteTermination is experiment E4: on every bipartite instance and
// every picked source, amnesiac flooding terminates in exactly e(source)
// rounds (Lemma 2.1), within the diameter (Corollary 2.2), visiting every
// node exactly once.
func BipartiteTermination(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E4",
		Title:   "Lemma 2.1 / Cor 2.2: AF on connected bipartite graphs",
		Columns: []string{"family", "graph", "n", "m", "diam", "source", "e(src)", "rounds", "rounds==e(src)", "max receives"},
	}
	instances, err := bipartiteFamilies(cfg)
	if err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	checked := 0
	for _, inst := range instances {
		if !algo.IsBipartite(inst.g) {
			return nil, fmt.Errorf("E4: instance %s is not bipartite (generator bug)", inst.g)
		}
		if !algo.Connected(inst.g) {
			return nil, fmt.Errorf("E4: instance %s is not connected", inst.g)
		}
		diam := algo.Diameter(inst.g)
		for _, src := range pickSources(inst.g, rng) {
			res, cov, err := flood(cfg, inst.g, false, src)
			if err != nil {
				return nil, fmt.Errorf("E4: %s from %d: %w", inst.g, src, err)
			}
			if err := theory.CheckLaw(res); err != nil {
				return nil, fmt.Errorf("E4: %s from %d: %w", inst.g, src, err)
			}
			ecc := int(res.Metrics["termination.eccentricity"])
			if res.Rounds != ecc {
				return nil, fmt.Errorf("E4: %s from %d: %d rounds, want e(src) = %d (Lemma 2.1)", inst.g, src, res.Rounds, ecc)
			}
			t.AddRow(inst.family, inst.g.Name(), inst.g.N(), inst.g.M(), diam, src,
				ecc, res.Rounds, res.Rounds == ecc, cov.MaxReceives())
			checked++
		}
	}
	t.AddNote("%d (instance, source) pairs; every run matched rounds == e(source) <= D with single receipt per node", checked)
	t.AddNote("graph column is the registry spec (internal/graph/gen grammar); random instances seeded from the suite seed")
	return []*Table{t}, nil
}

// NonBipartiteTermination is experiment E5: on every non-bipartite instance
// amnesiac flooding terminates (Theorem 3.1) strictly after e(source) and
// within 2D+1 rounds (Theorem 3.3), exactly as the double-cover law
// predicts, so no node receives more than twice. It reports how often the
// paper's "strictly larger than D" holds, and asserts it only on the
// source-symmetric families.
func NonBipartiteTermination(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	t := &Table{
		ID:      "E5",
		Title:   "Theorems 3.1 + 3.3: AF on connected non-bipartite graphs",
		Columns: []string{"family", "graph", "n", "m", "diam", "source", "rounds", "rounds<=2D+1", "rounds>D", "max receives"},
	}
	instances, err := nonBipartiteFamilies(cfg)
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	checked, strictHolds := 0, 0
	for _, inst := range instances {
		if algo.IsBipartite(inst.g) {
			return nil, fmt.Errorf("E5: instance %s is bipartite (generator bug)", inst.g)
		}
		if !algo.Connected(inst.g) {
			return nil, fmt.Errorf("E5: instance %s is not connected", inst.g)
		}
		diam := algo.Diameter(inst.g)
		for _, src := range pickSources(inst.g, rng) {
			res, cov, err := flood(cfg, inst.g, false, src)
			if err != nil {
				return nil, fmt.Errorf("E5: %s from %d: %w", inst.g, src, err)
			}
			if err := theory.CheckLaw(res); err != nil {
				return nil, fmt.Errorf("E5: %s from %d: %w", inst.g, src, err)
			}
			if res.Rounds > 2*diam+1 {
				return nil, fmt.Errorf("E5: %s from %d: %d rounds > 2D+1 = %d (Theorem 3.3)", inst.g, src, res.Rounds, 2*diam+1)
			}
			// A node at distance e(src) also receives at its shortest walk
			// of the other parity, which is longer: rounds > e(src) always.
			if ecc := int(res.Metrics["termination.eccentricity"]); res.Rounds <= ecc {
				return nil, fmt.Errorf("E5: %s from %d: %d rounds <= e(src) = %d on a non-bipartite graph", inst.g, src, res.Rounds, ecc)
			}
			aboveD := res.Rounds > diam
			if inst.strictAboveDiameter && !aboveD {
				return nil, fmt.Errorf("E5: non-bipartite %s from %d: %d rounds <= diameter %d, want strictly more", inst.g, src, res.Rounds, diam)
			}
			if aboveD {
				strictHolds++
			}
			t.AddRow(inst.family, inst.g.Name(), inst.g.N(), inst.g.M(), diam, src,
				res.Rounds, res.Rounds <= 2*diam+1, aboveD, cov.MaxReceives())
			checked++
		}
	}
	t.AddNote("%d (instance, source) pairs; every run terminated within 2D+1 rounds with <= 2 receipts per node (Theorems 3.1, 3.3)", checked)
	t.AddNote("reproduction finding: rounds > e(src) held on all %d pairs; the parenthetical 'strictly larger than D' held on %d/%d — it holds on source-symmetric families (odd cycles, cliques, wheels) but not pointwise on irregular instances, where e(src) < D leaves room to end at or below D", checked, strictHolds, checked)
	return []*Table{t}, nil
}

// RoundSetAnalysis is experiment E6: the proof machinery of Theorem 3.1.
// For a mixed set of graphs it reconstructs the round-sets R_0, R_1, ...
// and verifies that no node ever occurs in two round-sets an even duration
// apart — the paper's set Re stays empty, which is exactly what the two
// contradiction cases of Figure 4 establish.
func RoundSetAnalysis(cfg Config) ([]*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	t := &Table{
		ID:      "E6",
		Title:   "Figure 4 / Lemma 3.2: even-duration repeats never occur",
		Columns: []string{"graph", "source", "rounds", "|R| sequences", "|Re| even", "min d", "max d"},
	}
	instances, err := buildAll(cfg, 300, []specInstance{
		{"triangle", "cycle:n=3"},
		{"oddCycle", "cycle:n=9"},
		{"evenCycle", "cycle:n=10"},
		{"clique", "complete:n=7"},
		{"petersen", "petersen"},
		{"wheel", "wheel:n=9"},
		{"grid", "grid:rows=5,cols=6"},
		{"lollipop", "lollipop:k=3,path=6"},
		{"randomNonBipartite", "randnonbipartite:n=60,p=0.05"},
		{"randomConnected", "randconnected:n=60,p=0.05"},
	})
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	for _, inst := range instances {
		for _, src := range pickSources(inst.g, rng) {
			res, cov, err := flood(cfg, inst.g, false, src)
			if err != nil {
				return nil, fmt.Errorf("E6: %s from %d: %w", inst.g, src, err)
			}
			if err := theory.CheckSequenceMachinery(cov); err != nil {
				return nil, fmt.Errorf("E6: %w", err)
			}
			seqs, err := theory.AnalyzeSequences(cov)
			if err != nil {
				return nil, fmt.Errorf("E6: %w", err)
			}
			t.AddRow(inst.g.Name(), src, res.Rounds, len(seqs.Sequences),
				seqs.EvenCount, seqs.MinDuration, seqs.MaxDuration)
		}
	}
	t.AddNote("|R| is the paper's set of node-repeat sequences (eq. 1); |Re| its even-duration subset, which Figure 4's two contradiction cases force to be empty — never observed non-empty")
	t.AddNote("all observed durations are odd: on non-bipartite graphs the two receipts of a node differ by an odd gap (cover parities differ)")
	return []*Table{t}, nil
}
