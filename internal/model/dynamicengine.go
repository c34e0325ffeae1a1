package model

import (
	"context"
	"fmt"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// DynamicEngine runs amnesiac flooding over a dynamic network: the edge set
// of one base graph changes between rounds as one Schedule dictates. Like
// AsyncEngine it owns reusable round state — double-buffered pending-edge
// arenas of packed edge indices, the grouper, and the cycle detector — so a
// single engine amortises everything across runs; it is not safe for
// concurrent use.
//
// # Semantics
//
// Messages sent in round r cross only edges alive in round r; a message
// whose edge is down is lost and counted in Result.Lost (the natural
// reading of "the link is gone" — lossless buffering would be the
// asynchronous model instead). The schedule sees each copy directed, so
// message loss and crashed nodes run here too, as schedules whose dead
// edges are single copies or every edge at a node. Nodes apply the usual
// amnesiac rule over their *base* neighbourhood: forward to every base
// neighbour not among this round's senders. Under the static schedule the
// engine reproduces the synchronous engines' traces byte for byte
// (asserted by fuzz tests).
//
// For periodic schedules the per-round configuration handed to the shared
// Detector is the schedule phase followed by the pending edge indices, so a
// repeat of the (configuration, phase) pair certifies non-termination;
// aperiodic schedules disable certificates and can only terminate or hit
// the round limit.
type DynamicEngine struct {
	g     *graph.Graph
	idx   csrIndex
	sched Schedule

	cur, nxt []int32  // pending directed edge indices, sorted
	cfg      []uint64 // scratch: phase-prefixed configuration
	alive    []int32
	sends    []engine.Send
	gr       grouper
	origins  []graph.NodeID
	det      Detector
}

// NewDynamic returns an engine running amnesiac flooding on g under sched.
func NewDynamic(g *graph.Graph, sched Schedule) *DynamicEngine {
	return &DynamicEngine{g: g, idx: newCSRIndex(g), sched: sched, gr: newGrouper(g.N())}
}

// Schedule returns the engine's schedule.
func (e *DynamicEngine) Schedule() Schedule { return e.sched }

// Run floods from the origins to termination, a non-termination
// certificate, or the round limit, with the same Options semantics as
// AsyncEngine.Run. Unlike the asynchronous engine, every round while
// messages are pending produces a trace record and an observer call, even
// when the schedule drops all of them — a zero-delivery round is an
// observable event of this model.
func (e *DynamicEngine) Run(ctx context.Context, origins []graph.NodeID, opts engine.Options) (engine.Result, error) {
	var err error
	e.origins, err = validateOrigins(e.g, origins, e.origins, "dynamic under "+e.sched.Name())
	if err != nil {
		return engine.Result{}, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	res := engine.Result{Protocol: amnesiacName}

	e.cur = e.cur[:0]
	for _, o := range e.origins {
		base := e.idx.csr.Offsets[o]
		for i := range e.idx.csr.Row(o) {
			e.cur = append(e.cur, base+int32(i))
		}
	}
	slices.Sort(e.cur)

	period := e.sched.Period()
	settled := settledAfter(e.sched)
	e.det.Reset()
	for round := 1; len(e.cur) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("model: dynamic %s on %s: %w", e.sched.Name(), e.g, err)
		}
		if round > maxRounds {
			res.Outcome = engine.OutcomeRoundLimit
			res.Rounds = maxRounds
			return res, nil
		}
		if period > 0 && round > settled {
			e.cfg = append(e.cfg[:0], uint64(round%period))
			for _, idx := range e.cur {
				e.cfg = append(e.cfg, uint64(uint32(idx)))
			}
			if first, ok := e.det.Check(round, e.cfg); ok {
				res.Outcome = engine.OutcomeCycle
				res.Certificate = &engine.Certificate{Start: first, Length: round - first}
				res.Rounds = round
				return res, nil
			}
		}
		res.Rounds = round

		// Split this round's sends into delivered (edge alive) and lost.
		e.alive = e.alive[:0]
		e.sends = e.sends[:0]
		for _, idx := range e.cur {
			from, to := e.idx.decode(idx)
			if e.sched.Alive(round, graph.Edge{U: from, V: to}) {
				e.alive = append(e.alive, idx)
				e.sends = append(e.sends, engine.Send{From: from, To: to})
			} else {
				res.Lost++
			}
		}
		res.TotalMessages += len(e.alive)
		if opts.Trace {
			res.Trace = append(res.Trace, engine.RoundRecord{Round: round, Sends: append([]engine.Send(nil), e.sends...)})
		}
		stop, err := opts.Observe(engine.RoundRecord{Round: round, Sends: e.sends})
		if err != nil {
			return res, fmt.Errorf("model: dynamic %s on %s: observer at round %d: %w", e.sched.Name(), e.g, round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}

		// Receivers respond over their base neighbourhood. Receivers
		// ascend and each row ascends, so the next arena is born sorted.
		e.gr.group(e.sends)
		e.nxt = e.nxt[:0]
		for _, v := range e.gr.receivers {
			senders := e.gr.senders(v)
			base := e.idx.csr.Offsets[v]
			i := 0
			for j, w := range e.idx.csr.Row(v) {
				for i < len(senders) && senders[i] < w {
					i++
				}
				if i < len(senders) && senders[i] == w {
					continue
				}
				e.nxt = append(e.nxt, base+int32(j))
			}
		}
		e.gr.reset()
		e.cur, e.nxt = e.nxt, e.cur
	}
	res.Terminated = true
	res.Outcome = engine.OutcomeTerminated
	return res, nil
}
