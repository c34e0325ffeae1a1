package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// flood-cold runs one cold flood at a time, the way afsim does: build the
// graph, build a session, run it, with a fresh graph and session for every
// operation. The serve and sweep workloads never rebuild a graph or a
// session in their window, so this is the workload where gen and sim
// set-up changes show.
const (
	floodGraph   = "gnp:n=262144,p=0.000244140625"
	floodNodes   = 262144
	floodOrigins = 2 // seeded origins the operations alternate between
)

// floodOutcome is what one cold flood reported.
type floodOutcome struct {
	origin int
	res    runResult
}

type floodBench struct {
	tr       *tracer
	origins  []graph.NodeID
	next     int
	outcomes []floodOutcome
}

func newFlood(opt options, tr *tracer) *floodBench {
	return &floodBench{tr: tr,
		origins: distinctOrigins(rand.New(rand.NewPCG(uint64(opt.seed), 0)), floodNodes, floodOrigins)}
}

func (b *floodBench) name() string     { return "flood-cold" }
func (b *floodBench) clients() int     { return 1 }
func (b *floodBench) layers() []string { return []string{"gen", "sim", "engine"} }

// setUp has no system to start: its warm-up pass is one cold flood.
func (b *floodBench) setUp(ctx context.Context) (func() error, error) {
	if _, err := b.op(ctx, 0); err != nil {
		return nil, err
	}
	return func() error { return nil }, nil
}

func (b *floodBench) begin() {}

// op floods once from the next origin on a freshly built graph and
// session. The previous flood's garbage is collected first, outside the
// timing, as a fresh afsim process would start with an empty heap.
func (b *floodBench) op(ctx context.Context, _ int) (opResult, error) {
	runtime.GC()
	o := b.next % len(b.origins)
	b.next++
	t0 := time.Now()
	g, err := gen.Build(floodGraph, graphSeed)
	if err != nil {
		return opResult{}, err
	}
	t1 := time.Now()
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Bitset), sim.WithSeed(graphSeed), sim.WithOrigins(b.origins[o]))
	if err != nil {
		return opResult{}, err
	}
	t2 := time.Now()
	res, err := sess.Run(ctx)
	if err != nil {
		return opResult{}, err
	}
	t3 := time.Now()
	op := b.tr.newOp()
	root := b.tr.add(op, -1, "sim.flood", t0, t3)
	b.tr.add(op, root, "gen.build", t0, t1)
	b.tr.add(op, root, "sim.new", t1, t2)
	// The first run sets the engine up before its kernel runs; the probe
	// later places the warm kernel time inside it.
	b.tr.runAt(op, b.tr.add(op, root, "sim.run", t2, t3), t2, 0)
	b.outcomes = append(b.outcomes, floodOutcome{origin: o, res: runResult{Rounds: res.Rounds, TotalMessages: res.TotalMessages, Terminated: res.Terminated}})
	return opResult{latency: t3.Sub(t0), units: 1}, nil
}

func (b *floodBench) finish() map[string]float64 { return nil }

func (b *floodBench) probes() ([]probeConfig, int) {
	return []probeConfig{{graph: floodGraph, protocol: "amnesiac", engine: sim.Bitset, origin: b.origins[0]}}, 1
}

// verify checks every flood's rounds and messages against a fast-engine
// run of the same graph from the same origin, and that it terminated.
func (b *floodBench) verify(ctx context.Context) error {
	runtime.GC()
	g, err := gen.Build(floodGraph, graphSeed)
	if err != nil {
		return err
	}
	sess, err := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Fast), sim.WithSeed(graphSeed))
	if err != nil {
		return err
	}
	want := make([]*runResult, len(b.origins))
	for _, out := range b.outcomes {
		if !out.res.Terminated {
			return fmt.Errorf("flood from %d did not terminate", b.origins[out.origin])
		}
		if want[out.origin] == nil {
			res, err := sess.RunFrom(ctx, []graph.NodeID{b.origins[out.origin]})
			if err != nil {
				return err
			}
			want[out.origin] = &runResult{Rounds: res.Rounds, TotalMessages: res.TotalMessages, Terminated: res.Terminated}
		}
		if out.res != *want[out.origin] {
			return fmt.Errorf("flood from %d: bitset %+v, fast reference %+v", b.origins[out.origin], out.res, *want[out.origin])
		}
	}
	return nil
}
