// Package fastengine is the high-performance synchronous round engine. It
// implements exactly the round semantics of the sequential reference engine
// in the parent package — byte-identical traces on every protocol — while
// doing amortised zero allocations per round.
//
// Where the reference engine groups each round's deliveries with a fresh map
// and normalises the next round with sort.Slice closures, this engine
// exploits the dense node identifiers 0..n-1 guaranteed by internal/graph:
//
//   - Grouping is a counting sort into a flat sender arena (the same CSR
//     shape as graph.CSR): one pass counts senders per receiver, one pass
//     scatters them. Because the round's sends are ordered by (From, To),
//     each receiver's senders land in the arena already sorted.
//   - A round's r distinct receivers are put in ascending order by a sort
//     while r < n/64, and from r >= n/64 on by setting them in a node bitmap
//     and sweeping its n/64 words, O(r) instead of O(r·log r). Flood rounds
//     on cycles and most grid rounds stay on the sort; dense rounds skip it.
//   - The per-round send buffers are double-buffered and reused across
//     rounds, as are the arena, the receiver list, the node bitmap and the
//     counting arrays, so a round allocates nothing. The counting arrays
//     are reset sparsely (only touched entries), so short rounds on huge
//     graphs stay cheap.
//   - Receivers are activated in ascending node order and protocols emit
//     destinations in ascending order, so the next round is already
//     normalised; a linear scan verifies this and the O(m log m) sort runs
//     only if a protocol misbehaves.
//   - Protocols declaring an engine.BitsetRule (amnesiac and classic
//     flooding) have the engine execute that rule itself: each receiver's
//     sends are one merge of its CSR row against its senders, appended
//     straight into the arena (no per-node closure, no per-call result
//     slice). Other protocols fall back to engine.Protocol.NewNode
//     transparently.
//
// Every round runs on the calling goroutine; callers get parallelism by
// running one Engine per goroutine.
package fastengine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// Engine executes protocols on one graph. It owns reusable round state, so a
// single Engine amortises its setup across many runs; it is not safe for
// concurrent use (run several Engines for that).
type Engine struct {
	g *graph.Graph

	cur, nxt    []engine.Send  // double-buffered round send arenas
	senderArena []graph.NodeID // round senders grouped by receiver (CSR-style)
	receivers   []graph.NodeID // sorted distinct receivers of the round
	receiverSet []uint64       // node bitmap that orders dense rounds' receivers; all zero between rounds
	count       []int32        // per-receiver sender count; sparsely reset
	cursor      []int32        // scatter cursor; ends at the receiver's arena end
	seen        []bool         // per-node seen bit of engine.RuleComplementOnce runs
}

// New returns an engine for g.
func New(g *graph.Graph) *Engine {
	n := g.N()
	return &Engine{
		g:           g,
		receiverSet: make([]uint64, (n+63)/64),
		count:       make([]int32, n),
		cursor:      make([]int32, n),
	}
}

// Run is the one-shot convenience wrapper: a fresh engine per call. Reuse an
// Engine for allocation-free repeated runs.
func Run(ctx context.Context, g *graph.Graph, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	return New(g).Run(ctx, proto, opts)
}

// Run executes proto to termination or the round limit, with the same
// semantics, results, and traces as engine.Run. Cancellation of ctx is
// checked once per round, before the round is counted, so a cancelled run
// still returns a consistent partial Result alongside the context's error.
func (e *Engine) Run(ctx context.Context, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = engine.DefaultMaxRounds
	}
	res := engine.Result{Protocol: proto.Name()}

	e.cur = append(e.cur[:0], proto.Bootstrap()...)
	e.cur = normalize(e.cur)
	appender := e.appenderFor(proto)
	for round := 1; len(e.cur) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("fastengine: %s on %s: %w", proto.Name(), e.g, err)
		}
		if round > maxRounds {
			return res, fmt.Errorf("fastengine: %s on %s: %w (%d)", proto.Name(), e.g, engine.ErrMaxRounds, maxRounds)
		}
		res.Rounds = round
		res.TotalMessages += len(e.cur)
		if opts.Trace {
			res.Trace = append(res.Trace, engine.RoundRecord{Round: round, Sends: append([]engine.Send(nil), e.cur...)})
		}
		stop, err := opts.Observe(engine.RoundRecord{Round: round, Sends: e.cur})
		if err != nil {
			return res, fmt.Errorf("fastengine: %s on %s: observer at round %d: %w", proto.Name(), e.g, round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}

		// Activate receivers in ascending node order, appending their
		// responses into the next-round buffer.
		e.group()
		e.nxt = e.nxt[:0]
		for _, v := range e.receivers {
			e.nxt = appender.AppendSends(round, v, e.senders(v), e.nxt)
			e.count[v] = 0
		}
		e.cur, e.nxt = e.nxt, e.cur
		e.cur = normalize(e.cur)
	}
	res.Terminated = true
	return res, nil
}

// group buckets the current round's sends by receiver via counting sort.
// Afterwards receiver v's senders are
// senderArena[cursor[v]-count[v]:cursor[v]], sorted ascending because the
// normalised send order scatters ascending Froms into each bucket.
func (e *Engine) group() {
	e.receivers = e.receivers[:0]
	for _, s := range e.cur {
		if e.count[s.To] == 0 {
			e.receivers = append(e.receivers, s.To)
		}
		e.count[s.To]++
	}
	if e.bitmapRound(len(e.receivers)) {
		for _, v := range e.receivers {
			e.receiverSet[v>>6] |= 1 << (uint(v) & 63)
		}
		e.receivers = e.receivers[:0]
		for wi, w := range e.receiverSet {
			if w == 0 {
				continue
			}
			e.receiverSet[wi] = 0
			for base := graph.NodeID(wi) << 6; w != 0; w &= w - 1 {
				e.receivers = append(e.receivers, base+graph.NodeID(bits.TrailingZeros64(w)))
			}
		}
	} else {
		slices.Sort(e.receivers)
	}
	if cap(e.senderArena) < len(e.cur) {
		e.senderArena = make([]graph.NodeID, len(e.cur))
	}
	e.senderArena = e.senderArena[:len(e.cur)]
	off := int32(0)
	for _, v := range e.receivers {
		e.cursor[v] = off
		off += e.count[v]
	}
	for _, s := range e.cur {
		e.senderArena[e.cursor[s.To]] = s.From
		e.cursor[s.To]++
	}
}

// bitmapRound reports whether group orders a round's distinct receivers
// through the node bitmap instead of sorting them: with at least one
// receiver per bitmap word, the word sweep costs no more than setting the
// bits, while the sort costs a log factor on top.
func (e *Engine) bitmapRound(receivers int) bool {
	return receivers >= len(e.receiverSet)
}

// senders returns receiver v's delivery batch within the arena.
func (e *Engine) senders(v graph.NodeID) []graph.NodeID {
	end := e.cursor[v]
	return e.senderArena[end-e.count[v] : end]
}

// normalize ensures sends are strictly ordered by (From, To). Well-behaved
// protocols already emit this order, verified with one linear pass; the
// sort-and-compact fallback runs only on out-of-order or duplicate output.
func normalize(sends []engine.Send) []engine.Send {
	ordered := true
	for i := 1; i < len(sends); i++ {
		if !sendLess(sends[i-1], sends[i]) {
			ordered = false
			break
		}
	}
	if ordered {
		return sends
	}
	slices.SortFunc(sends, func(a, b engine.Send) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	return slices.Compact(sends)
}

// sendLess is the strict (From, To) order.
func sendLess(a, b engine.Send) bool {
	return a.From < b.From || (a.From == b.From && a.To < b.To)
}

// appender is one run's per-node delivery step: it appends the sends of
// receiver v, given v's sorted senders, onto out. AppendSends must emit v's
// sends in ascending destination order (the engine normalises otherwise, at
// a cost) and must not retain senders or out.
type appender interface {
	AppendSends(round int, v graph.NodeID, senders []graph.NodeID, out []engine.Send) []engine.Send
}

// appenderFor picks the run's delivery step from the protocol's declared
// engine.BitsetRule, falling back to its NewNode automata for protocols
// without a rule (or with one this engine does not know). It runs after the
// bootstrap sends are in e.cur: the once rule pre-marks their senders as
// seen, exactly like bitengine's bootstrap (an isolated origin sends
// nothing, but it never receives either, so its bit is moot).
func (e *Engine) appenderFor(proto engine.Protocol) appender {
	if bp, ok := proto.(engine.BitsetProtocol); ok {
		switch bp.BitsetRule() {
		case engine.RuleComplement:
			return complementAppender{csr: e.g.CSR()}
		case engine.RuleComplementOnce:
			if e.seen == nil {
				e.seen = make([]bool, e.g.N())
			} else {
				clear(e.seen)
			}
			for _, s := range e.cur {
				e.seen[s.From] = true
			}
			return &onceAppender{csr: e.g.CSR(), seen: e.seen}
		}
	}
	return &automataAppender{proto: proto, automata: make([]engine.NodeAutomaton, e.g.N())}
}

// complementAppender executes engine.RuleComplement: every receiver forwards
// to the complement of its senders within its neighbourhood. It carries no
// run state.
type complementAppender struct {
	csr graph.CSR
}

func (a complementAppender) AppendSends(_ int, v graph.NodeID, senders []graph.NodeID, out []engine.Send) []engine.Send {
	return appendComplement(out, v, a.csr.Row(v), senders)
}

// onceAppender executes engine.RuleComplementOnce: a receiver's first
// delivery forwards to the complement of its senders, every later one is
// dropped. seen is the engine-owned per-node bit.
type onceAppender struct {
	csr  graph.CSR
	seen []bool
}

func (a *onceAppender) AppendSends(_ int, v graph.NodeID, senders []graph.NodeID, out []engine.Send) []engine.Send {
	if a.seen[v] {
		return out
	}
	a.seen[v] = true
	return appendComplement(out, v, a.csr.Row(v), senders)
}

// appendComplement appends Send{from, nbr} for every nbr in nbrs that does
// not appear in senders, preserving order. Both inputs must be sorted
// ascending. It is the flooding rules' shared "forward to everyone who did
// not just send to me" merge: a two-pointer pass with zero allocation beyond
// out's growth.
func appendComplement(out []engine.Send, from graph.NodeID, nbrs, senders []graph.NodeID) []engine.Send {
	i := 0
	for _, nbr := range nbrs {
		for i < len(senders) && senders[i] < nbr {
			i++
		}
		if i < len(senders) && senders[i] == nbr {
			continue
		}
		out = append(out, engine.Send{From: from, To: nbr})
	}
	return out
}

// automataAppender adapts the generic per-node-closure protocol contract to
// the appender, buying protocols without a bitset rule the map-free grouping
// and sort-free normalisation (their automata still allocate their result
// slices). Automata are created lazily, matching engine.Run.
type automataAppender struct {
	proto    engine.Protocol
	automata []engine.NodeAutomaton
}

func (a *automataAppender) AppendSends(round int, v graph.NodeID, senders []graph.NodeID, out []engine.Send) []engine.Send {
	aut := a.automata[v]
	if aut == nil {
		aut = a.proto.NewNode(v)
		a.automata[v] = aut
	}
	for _, dst := range aut(round, senders) {
		out = append(out, engine.Send{From: v, To: dst})
	}
	return out
}
