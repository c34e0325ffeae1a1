package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/stats"
)

// This file is the traced run's instrumentation. Every span is recorded
// here, in the benchmark, around calls into one layer's public functions
// (or from what a layer reports about itself, such as a response's phase
// split); nothing inside the simulator is instrumented. A span is named
// "<layer>.<what>", so a layer's self time is the sum over its spans of
// their duration minus the part their child spans cover.

// span is one timed interval of one operation.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	ops      int64
	spans    []span
	inWindow bool
	window   map[int64]bool // operations started in the measured window
	runs     []pendingRun
}

// pendingRun marks where one run of probe configuration cfg took place
// inside a span whose own timing does not separate the kernel from what
// surrounds it.
type pendingRun struct {
	op     int64
	parent int
	start  time.Time
	cfg    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), window: map[int64]bool{}} }

// setWindow marks the measured window's start (true) and end (false);
// only operations started inside it count in the layer split.
func (t *tracer) setWindow(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inWindow = on
}

// newOp allocates an operation identifier.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if t.inWindow {
		t.window[t.ops] = true
	}
	return t.ops
}

// add records one span and returns its identifier for children.
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// setEnd closes a span recorded before its end was known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(end.Sub(t.t0))
}

// runAt marks that parent, starting at start, contains one run of probe
// configuration cfg; fillRuns records its kernel and analysis spans there
// once the probes have timed them.
func (t *tracer) runAt(op int64, parent int, start time.Time, cfg int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs = append(t.runs, pendingRun{op: op, parent: parent, start: start, cfg: cfg})
}

// fillRuns lays each marked run's probed kernel time, then its analysis
// observation time, from the run's start.
func (t *tracer) fillRuns(timings []probeTiming) {
	for _, r := range t.runs {
		pt := timings[r.cfg]
		kernelEnd := r.start.Add(msDuration(pt.kernelMs))
		t.add(r.op, r.parent, "engine.kernel", r.start, kernelEnd)
		if pt.runMs > pt.kernelMs {
			t.add(r.op, r.parent, "analysis.observe", kernelEnd, kernelEnd.Add(msDuration(pt.runMs-pt.kernelMs)))
		}
	}
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// layerSplit is one layer's part of the window's operations.
type layerSplit struct {
	SelfMsPerOp float64 `json:"selfMsPerOp"`
	Share       float64 `json:"share"`
}

// layerSplit sums each layer's self time over the window's operations and
// gives it per operation and as a share of all the operations' self time.
// Shares are of self time rather than of wall time because an operation's
// parts may run in parallel (two shard workers under one suite).
func (t *tracer) layerSplit() map[string]layerSplit {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var total float64
	ops := map[int64]bool{}
	for _, s := range t.spans {
		if !t.window[s.Op] {
			continue
		}
		ops[s.Op] = true
		layer, _, _ := strings.Cut(s.Name, ".")
		ns := float64(s.End-s.Start) - covered(s, children[s.ID])
		self[layer] += ns
		total += ns
	}
	out := map[string]layerSplit{}
	for layer, ns := range self {
		if ns > 0 {
			out[layer] = layerSplit{SelfMsPerOp: ns / float64(len(ops)) / 1e6, Share: ns / total}
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var sum, end int64
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			sum += v.hi - lo
			end = v.hi
		}
	}
	return float64(sum)
}

// probeConfig is one configuration the traced run times layer by layer:
// a graph build, a session, its first run, warm kernel-only runs, and warm
// runs with the workload's analyses.
type probeConfig struct {
	graph    string
	protocol string
	engine   sim.EngineKind
	analyses []string
	origin   graph.NodeID
}

// warmRuns is how many warm runs a probe times; it reports their median.
const warmRuns = 3

// probeTiming is one configuration's warm run time, kernel only and with
// its analyses attached (equal when it attaches none), in ms.
type probeTiming struct {
	kernelMs, runMs float64
}

// probeSample is what timing one configuration on one goroutine measured.
type probeSample struct {
	buildS, setupMs, kernelMs, runMs float64
	edges, msgs                      float64
}

// runProbes times each configuration's layers from outside, on parallel
// goroutines at once (each with its own graph and sessions) so the
// timings see the contention the workload's window did. It returns the
// per-layer metrics as means over the configurations, which every
// workload draws from uniformly, with each configuration's timing. The
// analysis metrics appear only when some configuration attaches analyses;
// one that attaches none counts as observing for free.
func runProbes(ctx context.Context, cfgs []probeConfig, parallel int, tr *tracer) (map[string]float64, []probeTiming, error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("workload lists no probe configurations")
	}
	var build, setup, kernel, overhead []float64
	var timings []probeTiming
	var edges, msgs, buildS, kernelS, observeMs float64
	analysed := false
	for _, c := range cfgs {
		runtime.GC() // the previous configuration's graphs are garbage now
		op := tr.newOp()
		samples := make([]probeSample, parallel)
		errs := make([]error, parallel)
		var wg sync.WaitGroup
		for i := range samples {
			wg.Add(1)
			go func() {
				defer wg.Done()
				samples[i], errs[i] = probeOnce(ctx, c, tr, op)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, nil, err
		}
		var pt probeTiming
		var cfgBuild, cfgSetup float64
		for _, s := range samples {
			cfgBuild += s.buildS * 1e3 / float64(parallel)
			cfgSetup += s.setupMs / float64(parallel)
			pt.kernelMs += s.kernelMs / float64(parallel)
			pt.runMs += s.runMs / float64(parallel)
			edges += s.edges
			buildS += s.buildS
			msgs += s.msgs
			kernelS += s.kernelMs / 1e3
		}
		build = append(build, cfgBuild)
		setup = append(setup, cfgSetup)
		kernel = append(kernel, pt.kernelMs)
		overhead = append(overhead, pt.runMs/pt.kernelMs)
		observeMs += pt.runMs - pt.kernelMs
		analysed = analysed || len(c.analyses) > 0
		timings = append(timings, pt)
	}
	out := map[string]float64{
		"gen.build_ms":      stats.Summarize(build).Mean,
		"gen.edges_per_s":   edges / buildS,
		"sim.setup_ms":      stats.Summarize(setup).Mean,
		"engine.kernel_ms":  stats.Summarize(kernel).Mean,
		"engine.msgs_per_s": msgs / kernelS,
	}
	if analysed {
		out["analysis.observe_ms"] = observeMs / float64(len(cfgs))
		out["analysis.overhead_x"] = stats.Summarize(overhead).Mean
	}
	return out, timings, nil
}

// probeOnce builds the configuration's graph and a session, runs it once
// (set-up included), times warm kernel-only runs, then warm runs of a
// second session with the analyses attached.
func probeOnce(ctx context.Context, c probeConfig, tr *tracer, op int64) (probeSample, error) {
	var s probeSample
	opts := []sim.Option{sim.WithProtocol(c.protocol), sim.WithEngine(c.engine), sim.WithSeed(graphSeed), sim.WithOrigins(c.origin)}
	t0 := time.Now()
	g, err := gen.Build(c.graph, graphSeed)
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	sess, err := sim.New(g, opts...)
	if err != nil {
		return s, err
	}
	t2 := time.Now()
	if _, err := sess.Run(ctx); err != nil {
		return s, err
	}
	t3 := time.Now()
	tr.add(op, -1, "gen.build", t0, t1)
	tr.add(op, -1, "sim.new", t1, t2)
	tr.add(op, -1, "sim.first_run", t2, t3)
	warm, res, err := timeRuns(ctx, sess, tr, op, "engine.run")
	if err != nil {
		return s, err
	}
	s = probeSample{buildS: t1.Sub(t0).Seconds(), setupMs: ms(t3.Sub(t1)) - warm, kernelMs: warm, runMs: warm,
		edges: float64(g.M()), msgs: float64(res.TotalMessages)}
	if len(c.analyses) == 0 {
		return s, nil
	}
	asess, err := sim.New(g, append(opts, sim.WithAnalysis(c.analyses...))...)
	if err != nil {
		return s, err
	}
	// The first analysed run pays the analyses' lazy per-session set-up
	// (bipartiteness, diameter), which pooled service sessions have paid
	// before the window.
	if _, err := asess.Run(ctx); err != nil {
		return s, err
	}
	s.runMs, _, err = timeRuns(ctx, asess, tr, op, "analysis.run")
	return s, err
}

// timeRuns times warmRuns runs of a warmed session and returns the median
// in milliseconds with the last run's result.
func timeRuns(ctx context.Context, sess *sim.Session, tr *tracer, op int64, name string) (float64, runResult, error) {
	var times []float64
	var res runResult
	for i := 0; i < warmRuns; i++ {
		start := time.Now()
		r, err := sess.Run(ctx)
		if err != nil {
			return 0, res, err
		}
		end := time.Now()
		tr.add(op, -1, name, start, end)
		times = append(times, ms(end.Sub(start)))
		res = runResult{Rounds: r.Rounds, TotalMessages: r.TotalMessages, Terminated: r.Terminated}
	}
	return stats.Quantile(times, 0.5), res, nil
}

// runResult is the part of a run's result the benchmark checks.
type runResult struct {
	Rounds        int
	TotalMessages int
	Terminated    bool
}
