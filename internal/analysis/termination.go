package analysis

import (
	"strconv"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

// Termination measures how a run ended against the paper's predictions:
// the observed round and message totals, the e(source) .. 2D+1 termination
// window (exact e(source) on bipartite graphs — Lemma 2.1 / Theorem 3.3),
// and, when the graph spec names a family with a known closed form (path,
// cycle, complete, star, hypercube), the exact predicted round count.
// Graph-level quantities (bipartiteness, diameter) are computed lazily once
// per analyzer and reused across every run of the session.
type Termination struct {
	g      *graph.Graph
	origin graph.NodeID
	single bool

	bipartite     bool
	bipartiteOnce bool
	diam          int
	diamOnce      bool
	ecc           eccCache

	// closed-form recognition, resolved once from the graph spec
	family string // "" when the spec is absent or has no closed form
	n      int    // size parameter of the recognised family
}

var (
	_ Analyzer                = (*Termination)(nil)
	_ engine.FrontierObserver = (*Termination)(nil)
)

func init() {
	Register("termination", Family{
		Doc: "termination round and messages vs. the paper's e(src)..2D+1 window and per-family closed forms",
		Metrics: []string{"rounds", "messages", "eccentricity", "boundLower",
			"boundUpper", "boundExact", "withinBounds", "closedForm", "closedFormOK"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			t := &Termination{g: ctx.Graph}
			t.recognise(ctx.GraphSpec)
			return t, nil
		},
	})
}

// recognise resolves the closed-form family, if any, from the canonical
// graph spec. Registry-built graphs are named with their fully explicit
// spec, so the size parameter is always present; hand-named graphs that do
// not parse simply get no closed-form metrics.
func (t *Termination) recognise(spec string) {
	parsed, err := gen.Parse(spec)
	if err != nil {
		return
	}
	param := func(name string) (int, bool) {
		raw, ok := parsed.Params[name]
		if !ok {
			// Fall back to the declared default for hand-written specs.
			fam, famOK := gen.Lookup(parsed.Family)
			if !famOK {
				return 0, false
			}
			for _, p := range fam.Params {
				if p.Name == name {
					raw = p.Default
					ok = true
				}
			}
			if !ok {
				return 0, false
			}
		}
		n, err := strconv.Atoi(raw)
		return n, err == nil
	}
	switch parsed.Family {
	case "path", "cycle", "complete", "star":
		if n, ok := param("n"); ok {
			t.family, t.n = parsed.Family, n
		}
	case "hypercube":
		if d, ok := param("d"); ok {
			t.family, t.n = parsed.Family, d
		}
	}
}

// closedForm returns the family's exact single-source termination round,
// if recognised. The constants are the double-cover law specialised per
// family (internal/theory/closedform_test.go pins them against the
// simulator): paths terminate at the source's eccentricity max(s, n-1-s),
// even cycles at n/2, odd cycles at n, cliques at 3 (1 for K2, 0 for K1),
// stars at 1 from the hub and 2 from a leaf, hypercubes at d.
func (t *Termination) closedForm(src graph.NodeID) (int, bool) {
	s := int(src)
	switch t.family {
	case "path":
		return max(s, t.n-1-s), true
	case "cycle":
		if t.n%2 == 0 {
			return t.n / 2, true
		}
		return t.n, true
	case "complete":
		switch {
		case t.n <= 1:
			return 0, true
		case t.n == 2:
			return 1, true
		default:
			return 3, true
		}
	case "star":
		switch {
		case t.n <= 1:
			return 0, true
		case s == 0: // gen.Star's hub is node 0
			return 1, true
		default:
			return 2, true
		}
	case "hypercube":
		return t.n, true
	default:
		return 0, false
	}
}

// Family implements Analyzer.
func (t *Termination) Family() string { return "termination" }

// Start implements Analyzer.
func (t *Termination) Start(origins []graph.NodeID) error {
	t.single = len(origins) == 1
	if t.single {
		t.origin = origins[0]
	}
	return nil
}

// ObserveRound implements engine.RoundObserver.
func (t *Termination) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return t.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver.
func (t *Termination) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver; the metrics derive
// from the engine result, so observation is a no-op that never requests a
// stop (the termination round is a whole-run property).
func (t *Termination) ObserveFrontier(engine.Frontier) (bool, error) {
	return false, nil
}

// Finish implements Analyzer. The bound and closed-form metrics apply only
// to single-source runs under the synchronous model that ran to their
// natural end; truncated, multi-source, or non-sync runs report the raw
// rounds/messages alone.
func (t *Termination) Finish(res engine.Result) (Metrics, error) {
	m := Metrics{
		"rounds":   float64(res.Rounds),
		"messages": float64(res.TotalMessages),
	}
	if !t.single || res.Stopped || !res.Terminated || (res.Model != "" && res.Model != "sync") {
		return m, nil
	}
	ecc := t.ecc.of(t.g, t.origin)
	m["eccentricity"] = float64(ecc)
	if !t.bipartiteOnce {
		t.bipartite = algo.IsBipartite(t.g)
		t.bipartiteOnce = true
	}
	lower, upper := ecc, ecc
	if !t.bipartite {
		if !t.diamOnce {
			t.diam = algo.Diameter(t.g)
			t.diamOnce = true
		}
		upper = 2*t.diam + 1
	}
	m["boundLower"] = float64(lower)
	m["boundUpper"] = float64(upper)
	m["boundExact"] = boolMetric(t.bipartite)
	m["withinBounds"] = boolMetric(res.Rounds >= lower && res.Rounds <= upper)
	if cf, ok := t.closedForm(t.origin); ok {
		m["closedForm"] = float64(cf)
		m["closedFormOK"] = boolMetric(res.Rounds == cf)
	}
	return m, nil
}
