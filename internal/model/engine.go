package model

import (
	"context"
	"fmt"
	"math"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// amnesiacName is the protocol name the model engine stamps on its results;
// the model is an axis of *amnesiac* flooding (see the package comment),
// and the spelling matches core.Flood's Name so model runs and synchronous
// runs attribute to the same protocol in reports.
const amnesiacName = "amnesiac-flooding"

// Engine runs amnesiac flooding on one graph under one execution model.
// Adversaries and schedules are two hooks on the fate of each directed copy
// of M in one round loop: when a copy is sent the Adversary sets its extra
// delay (0 without one), and when it is due the Schedule decides whether it
// arrives (every copy does without one). A copy that does not arrive is
// counted in Result.Lost.
//
// The engine owns reusable round state — double-buffered in-flight arenas
// of packed deliverAt<<32 | edgeIdx words, the counting-sort grouper, and
// the cycle detector — so one engine amortises everything across runs; it
// is not safe for concurrent use (run several engines for that).
//
// # Semantics
//
// A node processes all copies delivered to it in one round as a single
// batch and responds, over its base neighbourhood, to the complement of
// that batch's senders in the next round. With every delay zero and every
// copy alive the model is the synchronous one, and traces are
// byte-identical to the synchronous engines' (asserted by fuzz tests under
// adversary:sync and schedule:static).
//
// A round with copies due produces a trace record and an observer call even
// when the schedule loses all of them. A round in which every copy in
// flight is still delayed delivers nothing: it is counted but not
// observed, so a trace under the zero-delay adversary aligns round for
// round with the synchronous engines'.
//
// # Certificates
//
// Each round's configuration, handed to the Detector, is a phase word,
// round mod period, followed by the sorted arena with the round subtracted
// from every delivery time. The period is the schedule's Period, 1 under a
// deterministic adversary, and 0 — no certificates — under a random one;
// recording starts after a Settler's transient. A repeat certifies
// non-termination (engine.OutcomeCycle with a Certificate), which is how
// the paper's Figure 5 triangle schedule is reproduced without running
// forever.
type Engine struct {
	g       *graph.Graph
	name    string // "async" or "dynamic", after the model kind
	adv     Adversary
	sched   Schedule
	period  int // phase period of the configuration; 0 disables certificates
	settled int // last transient round of the schedule

	// Directed edge i runs edgeFrom[i] -> csr.Targets[i]. Edge indices sort
	// exactly like (From, To) pairs, which lets the engine keep messages as
	// packed integers yet deliver in the reference engines' canonical order.
	csr      graph.CSR
	edgeFrom []graph.NodeID

	cur, nxt []uint64 // in-flight arenas: deliverAt<<32 | edgeIdx, sorted
	cfg      []uint64 // scratch: phase-prefixed round-relative configuration
	sends    []engine.Send
	gr       grouper
	batch    []graph.Edge // copies sent this round, sorted by (From, To)
	batchIdx []int32      // edge index of each batch entry
	delays   []int
	origins  []graph.NodeID
	det      Detector
}

// NewEngine returns an engine running amnesiac flooding on g under m's
// adversary or schedule. The sync model, which has neither, runs as the
// zero-delay lossless case.
func NewEngine(g *graph.Graph, m Model) *Engine {
	csr := g.CSR()
	e := &Engine{
		g: g, name: "async", adv: m.Adversary, sched: m.Schedule, period: 1,
		csr: csr, edgeFrom: make([]graph.NodeID, len(csr.Targets)), gr: newGrouper(g.N()),
	}
	for v := 0; v < csr.N(); v++ {
		for i := csr.Offsets[v]; i < csr.Offsets[v+1]; i++ {
			e.edgeFrom[i] = graph.NodeID(v)
		}
	}
	if m.Schedule != nil {
		e.name, e.period = "dynamic", m.Schedule.Period()
		if s, ok := m.Schedule.(Settler); ok {
			e.settled = s.SettledAfter()
		}
	}
	if m.Adversary != nil && !m.Adversary.Deterministic() {
		e.period = 0
	}
	return e
}

// Name returns the substrate name stamped on results: "async" under an
// adversary, "dynamic" under a schedule.
func (e *Engine) Name() string { return e.name }

// errorf prefixes an engine error with the model and the graph.
func (e *Engine) errorf(format string, args ...any) error {
	policy := "sync"
	if e.adv != nil {
		policy = e.adv.Name()
	}
	if e.sched != nil {
		policy = e.sched.Name()
	}
	return fmt.Errorf("model: %s %s on %s: %w", e.name, policy, e.g, fmt.Errorf(format, args...))
}

// Run floods from the origins to termination, a non-termination
// certificate, or the round limit. Options are honoured as in the
// synchronous engines — per-round context checks, Trace, and a
// stop-capable Observer — except that MaxRounds == 0 means
// model.DefaultMaxRounds and hitting the limit is an outcome
// (engine.OutcomeRoundLimit), not an error: non-synchronous runs can
// legitimately never terminate.
func (e *Engine) Run(ctx context.Context, origins []graph.NodeID, opts engine.Options) (engine.Result, error) {
	if len(origins) == 0 {
		return engine.Result{}, e.errorf("need at least one origin")
	}
	for _, o := range origins {
		if !e.g.HasNode(o) {
			return engine.Result{}, e.errorf("origin %d is not a node", o)
		}
	}
	e.origins = append(e.origins[:0], origins...)
	slices.Sort(e.origins)
	e.origins = slices.Compact(e.origins)
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	res := engine.Result{Protocol: amnesiacName}
	if r, ok := e.adv.(Restarter); ok {
		r.Restart()
	}

	// Bootstrap: the origins send to every neighbour, a batch sent "in
	// round 0" for delivery in round 1 plus its delay.
	e.batch, e.batchIdx = e.batch[:0], e.batchIdx[:0]
	for _, o := range e.origins {
		e.appendSends(o, nil)
	}
	e.cur = e.cur[:0]
	if err := e.commit(&e.cur, 0); err != nil {
		return engine.Result{}, err
	}

	e.det.Reset()
	for round := 1; len(e.cur) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return res, e.errorf("%w", err)
		}
		if round > maxRounds {
			res.Outcome = engine.OutcomeRoundLimit
			res.Rounds = maxRounds
			return res, nil
		}
		if e.period > 0 && round > e.settled {
			// The sorted arena with the round subtracted from every
			// delivery time is already canonically ordered.
			e.cfg = append(e.cfg[:0], uint64(round%e.period))
			for _, p := range e.cur {
				e.cfg = append(e.cfg, p-uint64(round)<<32)
			}
			if first, ok := e.det.Check(round, e.cfg); ok {
				res.Outcome = engine.OutcomeCycle
				res.Certificate = &engine.Certificate{Start: first, Length: round - first}
				res.Rounds = round
				return res, nil
			}
		}
		res.Rounds = round

		// The copies due this round are the arena prefix with deliverAt ==
		// round, in edge-index, i.e. (From, To), order.
		nDue := 0
		for nDue < len(e.cur) && e.cur[nDue]>>32 == uint64(round) {
			nDue++
		}
		if nDue == 0 {
			continue // every copy is still delayed; time passes unobserved
		}
		e.sends = e.sends[:0]
		for _, p := range e.cur[:nDue] {
			from, to := e.edgeFrom[uint32(p)], e.csr.Targets[uint32(p)]
			if e.sched == nil || e.sched.Alive(round, graph.Edge{U: from, V: to}) {
				e.sends = append(e.sends, engine.Send{From: from, To: to})
			} else {
				res.Lost++
			}
		}
		res.TotalMessages += len(e.sends)
		if opts.Trace {
			res.Trace = append(res.Trace, engine.RoundRecord{Round: round, Sends: append([]engine.Send(nil), e.sends...)})
		}
		stop, err := opts.Observe(engine.RoundRecord{Round: round, Sends: e.sends})
		if err != nil {
			return res, e.errorf("observer at round %d: %w", round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}

		// Each receiver responds to the complement of its senders.
		e.gr.group(e.sends)
		e.batch, e.batchIdx = e.batch[:0], e.batchIdx[:0]
		for _, v := range e.gr.receivers {
			e.appendSends(v, e.gr.senders(v))
		}
		e.gr.reset()
		e.nxt = append(e.nxt[:0], e.cur[nDue:]...)
		if err := e.commit(&e.nxt, round); err != nil {
			return res, err
		}
		e.cur, e.nxt = e.nxt, e.cur
	}
	res.Terminated = true
	res.Outcome = engine.OutcomeTerminated
	return res, nil
}

// appendSends appends to the batch v's copies to every neighbour not in
// skip, which must be ascending.
func (e *Engine) appendSends(v graph.NodeID, skip []graph.NodeID) {
	base := e.csr.Offsets[v]
	i := 0
	for j, w := range e.csr.Row(v) {
		for i < len(skip) && skip[i] < w {
			i++
		}
		if i < len(skip) && skip[i] == w {
			continue
		}
		e.batch = append(e.batch, graph.Edge{U: v, V: w})
		e.batchIdx = append(e.batchIdx, base+int32(j))
	}
}

// commit has the adversary delay the batch sent in round, packs each copy
// into arena for delivery in round+1+delay, and sorts the arena. Negative
// delays are clamped to zero so a buggy adversary cannot corrupt the run;
// the overflow guard compares before adding, so an absurd delay near
// MaxInt cannot wrap past it.
func (e *Engine) commit(arena *[]uint64, round int) error {
	if e.adv != nil && len(e.batch) > 0 {
		e.delays = slices.Grow(e.delays[:0], len(e.batch))[:len(e.batch)]
		clear(e.delays)
		e.adv.Delays(e.batch, e.delays)
	}
	for i, idx := range e.batchIdx {
		d := 0
		if e.adv != nil {
			d = max(e.delays[i], 0)
		}
		if d > math.MaxInt32-round-1 {
			return e.errorf("delay %d at round %d overflows the packed delivery time", d, round)
		}
		*arena = append(*arena, uint64(round+1+d)<<32|uint64(uint32(idx)))
	}
	slices.Sort(*arena)
	return nil
}

// grouper buckets one round's deliveries by receiver with the counting-sort
// arena of the fastengine: one pass counts senders per receiver, one pass
// scatters them. Because rounds are processed in (From, To) order, each
// receiver's senders land in the arena already sorted ascending. The count
// array is reset sparsely (only touched entries), so short rounds on huge
// graphs stay cheap.
type grouper struct {
	count, cursor []int32
	senderArena   []graph.NodeID
	receivers     []graph.NodeID
}

func newGrouper(n int) grouper {
	return grouper{count: make([]int32, n), cursor: make([]int32, n)}
}

// group buckets sends (sorted by (From, To)) by receiver. Afterwards
// receivers holds the sorted distinct receivers and senders(v) returns
// each one's ascending sender batch. It leaves count populated; the caller
// must call reset once the batches have been consumed.
func (gr *grouper) group(sends []engine.Send) {
	gr.receivers = gr.receivers[:0]
	for _, s := range sends {
		if gr.count[s.To] == 0 {
			gr.receivers = append(gr.receivers, s.To)
		}
		gr.count[s.To]++
	}
	slices.Sort(gr.receivers)
	if cap(gr.senderArena) < len(sends) {
		gr.senderArena = make([]graph.NodeID, len(sends))
	}
	gr.senderArena = gr.senderArena[:len(sends)]
	off := int32(0)
	for _, v := range gr.receivers {
		gr.cursor[v] = off
		off += gr.count[v]
	}
	for _, s := range sends {
		gr.senderArena[gr.cursor[s.To]] = s.From
		gr.cursor[s.To]++
	}
}

// senders returns receiver v's delivery batch within the arena.
func (gr *grouper) senders(v graph.NodeID) []graph.NodeID {
	end := gr.cursor[v]
	return gr.senderArena[end-gr.count[v] : end]
}

// reset sparsely clears the count array for the next round.
func (gr *grouper) reset() {
	for _, v := range gr.receivers {
		gr.count[v] = 0
	}
}
