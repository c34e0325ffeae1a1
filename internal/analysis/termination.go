package analysis

import (
	"amnesiacflood/internal/doublecover"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/specgrammar"
)

// Termination measures how a run ended against the paper's predictions.
// It reports the observed round and message totals and the lower bound
// e(S), the eccentricity of the origin set S (e(source) for one origin).
// Where no node is reached in both parities (one origin on a bipartite
// component, or a set in one colour class) the window is exactly e(S)
// (Lemma 2.1); otherwise it is e(S)..2D+1 (Theorem 3.3), certified without
// computing D (doublecover.Window). For amnesiac floods it adds the exact
// law: the round and every node's receipt rounds predicted by one parity
// BFS from all origins over the bipartite double cover
// (internal/doublecover), checked round by round against the observed
// frontiers. When a single-origin run's graph spec names a family with a
// known closed form (path, cycle, complete, star, hypercube) it also
// reports that family's constant. Every metric is a pure function of
// (graph, origins): the per-run state is one parity BFS from the origins,
// and the only graph-level quantity, a two-sweep diameter lower bound, is
// computed once per analyzer from node 0.
type Termination struct {
	g      *graph.Graph
	origin graph.NodeID
	single bool // one origin: the closed forms apply

	// lb is the two-sweep lower bound on D, once per analyzer.
	lb     int
	lbOnce bool

	// The run's prediction and how the observed frontiers matched it.
	cover    doublecover.Arena
	heard    []int32 // heard[v]: the last round v was seen receiving, 0 if none
	received int     // distinct (node, round) receipts observed
	stray    bool    // some node received in a round the cover does not predict

	// closed-form recognition, resolved once from the graph spec
	family string // "" when the spec is absent or has no closed form
	n      int    // size parameter of the recognised family
}

var (
	_ Analyzer                = (*Termination)(nil)
	_ engine.FrontierObserver = (*Termination)(nil)
)

// amnesiacProtocol is the protocol name of amnesiac floods, the runs the
// double-cover law predicts.
const amnesiacProtocol = "amnesiac-flooding"

func init() {
	Families.Register("termination", Family{
		Doc: "termination round and messages vs. the paper's e(S)..2D+1 window for the origin set S (certified by a two-sweep bound), " +
			"the exact double-cover law for amnesiac floods, and per-family closed forms for one origin",
		Metrics: []string{"rounds", "messages", "eccentricity", "boundLower",
			"boundUpper", "boundExact", "withinBounds", "exactRounds", "exactOK", "closedForm", "closedFormOK"},
		New: func(ctx Context, v Values) (Analyzer, error) {
			t := &Termination{g: ctx.Graph}
			t.recognise(ctx.GraphSpec)
			return t, nil
		},
	})
}

// recognise resolves the closed-form family, if any, from the canonical
// graph spec, its size parameter explicit or defaulted. Hand-named graphs
// that do not parse simply get no closed-form metrics.
func (t *Termination) recognise(spec string) {
	parsed, err := gen.Parse(spec)
	if err != nil {
		return
	}
	_, v, err := gen.Families.Resolve(specgrammar.Spec(parsed))
	if err != nil {
		return
	}
	switch parsed.Family {
	case "path", "cycle", "complete", "star":
		t.family, t.n = parsed.Family, v.Int("n")
	case "hypercube":
		t.family, t.n = parsed.Family, v.Int("d")
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

// Start implements Analyzer. The run gets its prediction here: one parity
// BFS from all origins into the analyzer's reused arenas.
func (t *Termination) Start(origins []graph.NodeID) error {
	t.single = len(origins) == 1
	if t.single {
		t.origin = origins[0]
	}
	t.cover.Run(t.g, origins...)
	if t.heard == nil {
		t.heard = make([]int32, t.g.N())
	}
	clear(t.heard)
	t.received, t.stray = 0, false
	return nil
}

// ObserveRound implements engine.RoundObserver.
func (t *Termination) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return t.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver.
func (t *Termination) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver: each distinct
// receiver of the round is checked against its predicted receipt rounds.
// It never requests a stop (the termination round is a whole-run
// property).
func (t *Termination) ObserveFrontier(f engine.Frontier) (bool, error) {
	for v := range f.Receivers {
		t.receive(v, f.Round)
	}
	return false, nil
}

// receive checks that v's receipt in round is a predicted one. A receiver
// repeated within the round, as Send-derived rounds repeat them, counts
// once.
func (t *Termination) receive(v graph.NodeID, round int) {
	if t.heard[v] == int32(round) {
		return
	}
	t.heard[v] = int32(round)
	if t.cover.Receives(v, round) {
		t.received++
	} else {
		t.stray = true
	}
}

// Finish implements Analyzer in O(n+m) at most, for the two-sweep bound
// on the analyzer's first run whose window is not exact; otherwise O(1).
// The bound metrics apply to runs under the synchronous model that ran to
// their natural end, from one origin or from several; the exact law only
// to amnesiac floods among those, and the closed forms only to one origin.
// Truncated or non-sync runs report the raw rounds/messages alone.
func (t *Termination) Finish(res engine.Result) (Metrics, error) {
	m := Metrics{
		"rounds":   float64(res.Rounds),
		"messages": float64(res.TotalMessages),
	}
	if res.Stopped || !res.Terminated || (res.Model != "" && res.Model != "sync") {
		return m, nil
	}
	ecc, exact := t.cover.Eccentricity(), t.cover.Exact()
	m["eccentricity"] = float64(ecc)
	m["boundLower"] = float64(ecc)
	m["boundExact"] = boolMetric(exact)
	if !exact && !t.lbOnce {
		t.lb, t.lbOnce = algo.DiameterLowerBound(t.g), true
	}
	if upper, ok := doublecover.Window(res.Rounds, ecc, t.lb, exact); ok {
		m["boundUpper"] = float64(upper)
		m["withinBounds"] = boolMetric(res.Rounds >= ecc && res.Rounds <= upper)
	}
	if res.Protocol == amnesiacProtocol {
		m["exactRounds"] = float64(t.cover.Rounds())
		m["exactOK"] = boolMetric(res.Rounds == t.cover.Rounds() && !t.stray && t.received == t.cover.Receipts())
	}
	if cf, ok := t.closedForm(t.origin); t.single && ok {
		m["closedForm"] = float64(cf)
		m["closedFormOK"] = boolMetric(res.Rounds == cf)
	}
	return m, nil
}
