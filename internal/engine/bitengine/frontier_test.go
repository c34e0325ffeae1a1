package bitengine_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/classic"
	"amnesiacflood/internal/core"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/engine/bitengine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// roundView is one round reduced to what a Frontier carries: the message
// count and the sorted, distinct receiver set.
type roundView struct {
	round, messages int
	receivers       []graph.NodeID
}

// viewsOf reduces a materialised trace to per-round views.
func viewsOf(trace []engine.RoundRecord) []roundView {
	out := make([]roundView, len(trace))
	for i, rec := range trace {
		out[i] = roundView{rec.Round, len(rec.Sends), rec.Receivers()}
	}
	return out
}

// frontierProbe records every Frontier it is handed and fails the run if
// the engine falls back to the Send path.
type frontierProbe struct {
	rounds []roundView
}

func (p *frontierProbe) ObserveRound(engine.RoundRecord) (bool, error) {
	return false, errors.New("frontier-only observer was handed Send records")
}

func (p *frontierProbe) FrontierOnly() bool { return true }

func (p *frontierProbe) ObserveFrontier(f engine.Frontier) (bool, error) {
	var recv []graph.NodeID
	for v := range f.Receivers {
		recv = append(recv, v)
	}
	slices.Sort(recv)
	p.rounds = append(p.rounds, roundView{f.Round, f.Messages, slices.Compact(recv)})
	return false, nil
}

// sameViews reports whether two per-round view sequences agree round for
// round.
func sameViews(a, b []roundView) bool {
	return slices.EqualFunc(a, b, func(x, y roundView) bool {
		return x.round == y.round && x.messages == y.messages && slices.Equal(x.receivers, y.receivers)
	})
}

// coverageState is everything the coverage analysis accumulates in a run.
type coverageState struct {
	metrics             analysis.Metrics
	counts, first, last []int
}

// coverageOf runs proto with a lone coverage analyzer attached: traced runs
// feed it Send records, untraced bitset runs feed it frontiers.
func coverageOf(t *testing.T, run func(context.Context, *graph.Graph, engine.Protocol, engine.Options) (engine.Result, error),
	g *graph.Graph, proto engine.Protocol, origins []graph.NodeID, trace bool) coverageState {
	t.Helper()
	a, err := analysis.Build("coverage", analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	cov := a.(*analysis.Coverage)
	if err := cov.Start(origins); err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), g, proto, engine.Options{Trace: trace, Observer: cov})
	if err != nil {
		t.Fatalf("coverage run on %s: %v", g, err)
	}
	m, err := cov.Finish(res)
	if err != nil {
		t.Fatal(err)
	}
	return coverageState{m, slices.Clone(cov.ReceiveCounts()), slices.Clone(cov.FirstReceive()), slices.Clone(cov.LastReceive())}
}

// bipartiteState is what the bipartite analysis reports for a run: its
// metrics, or the error of a witness-signal disagreement (classic floods
// can make one), and the witnesses in order.
type bipartiteState struct {
	metrics   analysis.Metrics
	err       string
	witnesses []graph.NodeID
}

// bipartiteOf runs proto from src with a lone bipartite analyzer attached,
// fed Send records or frontiers as coverageOf's is.
func bipartiteOf(t *testing.T, run func(context.Context, *graph.Graph, engine.Protocol, engine.Options) (engine.Result, error),
	g *graph.Graph, proto engine.Protocol, src graph.NodeID, trace bool) bipartiteState {
	t.Helper()
	a, err := analysis.Build("bipartite", analysis.Context{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	bip := a.(*analysis.Bipartite)
	if err := bip.Start([]graph.NodeID{src}); err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), g, proto, engine.Options{Trace: trace, Observer: bip})
	if err != nil {
		t.Fatalf("bipartite run on %s: %v", g, err)
	}
	st := bipartiteState{witnesses: slices.Clone(bip.Witnesses())}
	if st.metrics, err = bip.Finish(res); err != nil {
		st.err = err.Error()
	}
	return st
}

// TestFrontierMatchesSends is the frontier differential gate: on the whole
// corpus, for single- and multi-source amnesiac and classic floods, every
// runner's untraced frontier path reports, every round, exactly the
// message count and receiver set of the sequential engine's Sends, and
// coverage computed through frontiers equals coverage computed through
// Sends; so does the bipartite analysis (metrics and witness order) on the
// single-source floods. Classic floods check that pull rounds still report
// receipts at already-seen rows.
func TestFrontierMatchesSends(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, g := range instances(t) {
		pick := func() graph.NodeID { return graph.NodeID(rng.Intn(g.N())) }
		src, multi := pick(), []graph.NodeID{pick(), pick(), pick()}
		cases := []struct {
			name    string
			proto   engine.Protocol
			origins []graph.NodeID
		}{
			{"amnesiac", core.MustNewFlood(g, src), []graph.NodeID{src}},
			{"multiSource", core.MustNewFlood(g, multi...), multi},
			{"classic", classic.MustNewFlood(g, src), []graph.NodeID{src}},
		}
		for _, tc := range cases {
			want, err := engine.Run(context.Background(), g, tc.proto, engine.Options{Trace: true})
			if err != nil {
				t.Fatalf("sequential %s on %s: %v", tc.name, g, err)
			}
			wantViews := viewsOf(want.Trace)
			wantCov := coverageOf(t, engine.Run, g, tc.proto, tc.origins, true)
			var wantBip bipartiteState
			if len(tc.origins) == 1 {
				wantBip = bipartiteOf(t, engine.Run, g, tc.proto, src, true)
			}
			for _, r := range allRunners() {
				probe := &frontierProbe{}
				got, err := r.run(context.Background(), g, tc.proto, engine.Options{Observer: probe})
				if err != nil {
					t.Fatalf("%s %s on %s: %v", r.name, tc.name, g, err)
				}
				if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || got.Terminated != want.Terminated {
					t.Errorf("%s %s on %s: result %+v, want %+v", r.name, tc.name, g, got, want)
				}
				if !sameViews(probe.rounds, wantViews) {
					t.Errorf("%s %s on %s: frontiers %v, want Sends-derived %v", r.name, tc.name, g, probe.rounds, wantViews)
				}
				for _, trace := range []bool{false, true} {
					if cov := coverageOf(t, r.run, g, tc.proto, tc.origins, trace); !reflect.DeepEqual(cov, wantCov) {
						t.Errorf("%s %s on %s (trace %t): coverage %+v, want %+v", r.name, tc.name, g, trace, cov, wantCov)
					}
					if len(tc.origins) != 1 {
						continue
					}
					if bip := bipartiteOf(t, r.run, g, tc.proto, src, trace); !reflect.DeepEqual(bip, wantBip) {
						t.Errorf("%s %s on %s (trace %t): bipartite %+v, want %+v", r.name, tc.name, g, trace, bip, wantBip)
					}
				}
			}
		}
	}
}

// relay mirrors the service's pooled-session relay: a frontier observer
// forwarding to a per-request target.
type relay struct {
	target engine.RoundObserver
}

func (r *relay) ObserveRound(rec engine.RoundRecord) (bool, error) {
	if r.target == nil {
		return false, nil
	}
	return r.target.ObserveRound(rec)
}

func (r *relay) FrontierOnly() bool { return engine.FrontierOnly(r.target) }

func (r *relay) ObserveFrontier(f engine.Frontier) (bool, error) {
	return engine.ObserveFrontier(r.target, f)
}

// TestFrontierObserversNeverMaterialise is the materialisation guard: a
// dense gnp flood observed through a composite shaped like a served run —
// relay → sim.MultiObserver → analysis.Set{coverage} — never builds a Send
// record, nor does adding echo, which reads nothing from the stream, or the
// frontier-level termination and bipartite analyses. A Send-level member
// (spantree, a TraceRecorder) or Options.Trace turns materialisation back
// on, with traces byte-identical to the sequential engine's and identical
// coverage metrics throughout.
func TestFrontierObserversNeverMaterialise(t *testing.T) {
	g := gen.MustBuild("gnp:n=2048,p=0.02", 1)
	origins := []graph.NodeID{0}
	flood := core.MustNewFlood(g, origins...)
	want, err := engine.Run(context.Background(), g, flood, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Trace)
	sameBytes := func(trace []engine.RoundRecord) bool {
		got, _ := json.Marshal(trace)
		return string(got) == string(wantJSON)
	}
	var wantCounts []int
	pulled := false
	for _, rec := range want.Trace {
		wantCounts = append(wantCounts, len(rec.Sends))
		pulled = pulled || len(rec.Sends) >= g.M() // half of the 2m directed slots
	}
	if !pulled {
		t.Fatal("the flood never reaches a pull round; densify the instance")
	}
	wantCov := coverageOf(t, engine.Run, g, flood, origins, true)

	cases := []struct {
		name        string
		specs       []string
		trace       bool
		recorder    bool
		unary       bool // relay target cleared, as for a unary request
		materialise bool
	}{
		{name: "streamed", specs: []string{"coverage"}},
		{name: "unary", specs: []string{"coverage"}, unary: true},
		{name: "echoMember", specs: []string{"coverage", "echo"}},
		{name: "terminationMember", specs: []string{"coverage", "termination"}},
		{name: "bipartiteMember", specs: []string{"coverage", "bipartite"}},
		{name: "spantreeMember", specs: []string{"coverage", "spantree"}, materialise: true},
		{name: "traceRecorder", specs: []string{"coverage"}, recorder: true, materialise: true},
		{name: "optsTrace", specs: []string{"coverage"}, trace: true, materialise: true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			set, err := analysis.NewSet(tc.specs, analysis.Context{Graph: g, GraphSpec: g.Name()})
			if err != nil {
				t.Fatal(err)
			}
			set.AllowStop = false
			if err := set.Start(origins); err != nil {
				t.Fatal(err)
			}
			var counts []int
			r := &relay{}
			if !tc.unary {
				r.target = engine.FrontierFunc(func(f engine.Frontier) (bool, error) {
					counts = append(counts, f.Messages)
					return false, nil
				})
			}
			obs := sim.MultiObserver{r, set}
			recorder := &sim.TraceRecorder{}
			if tc.recorder {
				obs = append(obs, recorder)
			}
			e := bitengine.New(g).Parallel(workers)
			res, err := e.Run(context.Background(), flood, engine.Options{Trace: tc.trace, Observer: obs, ParallelThreshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := bitengine.SendsCap(e) > 0; got != tc.materialise {
				t.Errorf("%s (workers %d): materialised = %t, want %t", tc.name, workers, got, tc.materialise)
			}
			if res.Rounds != want.Rounds || res.TotalMessages != want.TotalMessages || !res.Terminated {
				t.Errorf("%s (workers %d): result %+v, want %+v", tc.name, workers, res, want)
			}
			if !tc.unary && !slices.Equal(counts, wantCounts) {
				t.Errorf("%s (workers %d): streamed messages %v, want %v", tc.name, workers, counts, wantCounts)
			}
			if tc.trace && !sameBytes(res.Trace) {
				t.Errorf("%s (workers %d): Options.Trace bytes differ from the sequential trace", tc.name, workers)
			}
			if tc.recorder && !sameBytes(recorder.Trace) {
				t.Errorf("%s (workers %d): TraceRecorder bytes differ from the sequential trace", tc.name, workers)
			}
			m, err := set.Finish(res)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range wantCov.metrics {
				if m["coverage."+k] != v {
					t.Errorf("%s (workers %d): coverage.%s = %v, want %v", tc.name, workers, k, m["coverage."+k], v)
				}
			}
		}
	}
}
