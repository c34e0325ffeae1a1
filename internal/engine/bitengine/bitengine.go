// Package bitengine is the word-parallel synchronous round engine for
// flooding protocols whose whole round is a set operation over
// received-from directions (engine.BitsetProtocol). It produces traces
// byte-identical to the sequential reference engine while never
// materialising per-message Send records on the hot path.
//
// The state of an amnesiac-flooding round is exactly "which directed edges
// carry the message" — a subset of the 2m CSR edge slots. The engine packs
// that frontier into []uint64 bitsets and replaces the per-message loops of
// the other engines with word-granular passes. The push kernel runs three:
//
//   - Scatter: for every set bit e = (u→v) in the current frontier, set the
//     reciprocal slot mirror[e] in the receive bitset (v's
//     received-from-u direction) and mark v in a per-node bitset. mirror is
//     the precomputed permutation pairing each directed slot with its
//     reverse slot.
//   - Respond: for every marked node v, OR rowMask(v) AND-NOT receive into
//     the next frontier, word by word over v's contiguous CSR row span —
//     the paper's "forward to everyone you did not just hear from" as a
//     branch-free word sweep — and clear v's span of the receive bitset as
//     it is read. Classic flooding is the same sweep gated by a per-node
//     seen bit (engine.RuleComplementOnce).
//   - Clear and swap: dirty-word lists record which words of the frontier
//     and receiver bitsets went nonzero, so clearing costs O(frontier
//     words) rather than O(m/64) — essential on path-like graphs whose
//     floods run Θ(n) rounds with a constant-size frontier.
//
// From round 2 on, a round may run the dense kernel instead. Under the
// rule, a node forwards M to exactly the neighbours it did not just hear
// from, so a round's messages follow from the previous round's: with S_r
// the slots carrying M in round r and F_r the nodes that respond after
// round r,
//
//	S_r[(w→v)] = F_{r−1}(w) ∧ ¬S_{r−1}[(v→w)].
//
// Row v therefore receives on slot (v→w) unless w did not respond last
// round or (v→w) carried M last round. The dense kernel scatters, through
// mirror, the in-slots of last round's non-responders into one slot bitset
// Z, then sweeps every row in ascending order: v receives on rowMask(v)
// AND-NOT (Z OR S_{r−1}) and, if it received at all, responds on rowMask(v)
// AND (Z OR S_{r−1}), one word at a time. Its cost is the non-responders'
// degree sum plus one step per row, against push's one scatter per
// message, and a round runs dense exactly when that is no larger. In a
// saturated round almost every node responded last round, so Z is small:
// a flood of gnp:n=65536,p=2^-10 sends 3.86M messages in its round 4, and
// Z takes the 85.6k in-slots of the nodes that received nothing in round
// 3. Round 1 is always push: its messages are the protocol's Bootstrap,
// which need not be whole rows, so no previous round implies them. A
// round keeps its frontier and responders for the next one only when its
// responders' degree sum is large enough for that round to run dense;
// otherwise it clears them as push always has, so sparse floods pay
// nothing for the dense kernel. Both kernels compute the identical
// next-frontier bitset, so the switch is invisible in traces.
//
// Frontiers are double-buffered and every buffer is reused across rounds
// and runs, so a warmed-up engine allocates nothing per round. Rounds are
// materialised into sorted Send records only when Options.Trace is set or
// the observer is not frontier-only (engine.FrontierOnly); a frontier-only
// observer is handed an engine.Frontier instead — the popcount the round
// loop already takes, plus the receivers both kernels mark anyway (under
// the once rule the dense kernel marks already-seen receivers only for
// such an observer).
//
// Every round runs on the calling goroutine. Callers that want more CPUs run
// more Engines: a sweep or a server runs one session per worker, and a
// round split across goroutines would compete with them for the same CPUs.
//
// The kernels run directly on the graph's own CSR (graph.CSR); besides it
// the engine holds only the mirror permutation and the bitset arenas. Rows
// are sorted, so slots ascend in (From, To) order and a materialised round
// needs no sort.
package bitengine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// ErrUnsupportedProtocol is returned (wrapped) when the protocol does not
// implement engine.BitsetProtocol. Unlike the other engines, this one never
// calls NewNode or AppendSends — it executes the declared BitsetRule
// directly — so protocols with bespoke per-node behaviour cannot fall back.
var ErrUnsupportedProtocol = errors.New("protocol does not declare a bitset rule (engine.BitsetProtocol)")

// Supports reports whether proto can run on this engine.
func Supports(proto engine.Protocol) bool {
	_, ok := proto.(engine.BitsetProtocol)
	return ok
}

// Engine executes bitset-capable protocols on one graph. It owns all
// frontier state, so a single Engine amortises setup (mirror permutation,
// bitset arenas) across many runs; it is not safe for concurrent use (run
// several Engines for that).
type Engine struct {
	g *graph.Graph

	ready bool
	csr   graph.CSR // g's own CSR, shared with the graph
	// mirror pairs each directed CSR slot e = (u→v) with the reverse slot
	// (v→u), so scattering a send sets the receiver's direction bit with
	// one permuted store.
	mirror []int32

	cur, nxt  []uint64 // frontier bitsets over directed slots, double-buffered
	recv      []uint64 // received-from-direction bits of a push round
	mark      []uint64 // nodes receiving this round (per-node bits)
	seen      []uint64 // nodes already done (RuleComplementOnce only)
	dirtyCur  []int32  // nonzero word indices of cur
	dirtyNxt  []int32  // nonzero word indices of nxt
	dirtyMark []int32  // nonzero word indices of mark

	// The dense kernel's inputs (see package doc). respDeg sums the degrees
	// of this round's responders as they respond; fresh holds them under
	// RuleComplementOnce, while under RuleComplement every receiver
	// responds, so mark serves. When the next round may run dense, the
	// round hands its frontier to prev and its responders to last instead
	// of clearing them, and kept records that they hold them.
	prev    []uint64 // last round's frontier S_{r−1}, when kept
	last    []uint64 // last round's responders F_{r−1}, when kept
	fresh   []uint64 // this round's responders (RuleComplementOnce only)
	respDeg int      // degree sum of this round's responders
	lastDeg int      // degree sum of last round's responders, when kept
	kept    bool

	sends []engine.Send // round materialisation buffer (trace/Send-level observer only)
}

// New returns an engine for g.
func New(g *graph.Graph) *Engine {
	return &Engine{g: g}
}

// Run is the one-shot convenience wrapper: a fresh engine per call. Reuse an
// Engine for allocation-free repeated runs.
func Run(ctx context.Context, g *graph.Graph, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	return New(g).Run(ctx, proto, opts)
}

// init builds the mirror permutation, in one pass over the slots with one
// cursor per node, and the bitset arenas once per Engine.
func (e *Engine) init() {
	if e.ready {
		return
	}
	e.ready = true
	e.csr = e.g.CSR()
	n, slots := e.csr.N(), len(e.csr.Targets)

	// Slot order sweeps the rows u ascending, so it reaches the entries u
	// of each sorted row v in ascending order: a cursor that starts at v's
	// offset and moves one slot per visit is the reverse slot (v→u) itself.
	mirror := make([]int32, slots)
	pos := make([]int32, n)
	copy(pos, e.csr.Offsets[:n])
	for s, v := range e.csr.Targets {
		mirror[s] = pos[v]
		pos[v]++
	}
	e.mirror = mirror

	slotWords := (slots + 63) / 64
	nodeWords := (n + 63) / 64
	e.cur = make([]uint64, slotWords)
	e.nxt = make([]uint64, slotWords)
	e.recv = make([]uint64, slotWords)
	e.prev = make([]uint64, slotWords)
	e.mark = make([]uint64, nodeWords)
	e.seen = make([]uint64, nodeWords)
	e.last = make([]uint64, nodeWords)
	e.fresh = make([]uint64, nodeWords)
}

// reset clears all per-run state. Runs that end early (observer stop,
// cancellation, round limit) leave bits behind, so every Run starts from a
// wiped slate; the wipe is a handful of memclr sweeps, far below the cost
// of any run.
func (e *Engine) reset() {
	clear(e.cur)
	clear(e.nxt)
	clear(e.recv)
	clear(e.prev)
	clear(e.mark)
	clear(e.seen)
	clear(e.last)
	clear(e.fresh)
	e.dirtyCur = e.dirtyCur[:0]
	e.dirtyNxt = e.dirtyNxt[:0]
	e.dirtyMark = e.dirtyMark[:0]
	e.kept = false
}

// Run executes proto to termination or the round limit, with the same
// semantics, results, and traces as engine.Run. Cancellation of ctx is
// checked once per round, before the round is counted. Protocols without a
// bitset rule fail immediately with ErrUnsupportedProtocol (wrapped).
func (e *Engine) Run(ctx context.Context, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	bp, ok := proto.(engine.BitsetProtocol)
	if !ok {
		return engine.Result{Protocol: proto.Name()}, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.g, ErrUnsupportedProtocol)
	}
	rule := bp.BitsetRule()
	if rule != engine.RuleComplement && rule != engine.RuleComplementOnce {
		return engine.Result{Protocol: proto.Name()}, fmt.Errorf("bitengine: %s on %s: unknown bitset rule %d: %w", proto.Name(), e.g, rule, ErrUnsupportedProtocol)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = engine.DefaultMaxRounds
	}
	e.init()
	e.reset()
	res := engine.Result{Protocol: proto.Name()}

	if err := e.bootstrap(proto, rule); err != nil {
		return res, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.g, err)
	}
	// Send records are built only for a trace or a Send-level observer. A
	// frontier-only observer gets the round's Frontier instead: the popcount
	// below plus the receivers in mark, which both kernels fill (the dense
	// kernel's already-seen receivers under the once rule only when report
	// is set). Without an observer neither happens.
	materialise := opts.Trace || !engine.FrontierOnly(opts.Observer)
	report := opts.Observer != nil && !materialise
	for round := 1; ; round++ {
		frontier := 0
		for _, wi := range e.dirtyCur {
			frontier += bits.OnesCount64(e.cur[wi])
		}
		if len(e.dirtyCur) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.g, err)
		}
		if round > maxRounds {
			return res, fmt.Errorf("bitengine: %s on %s: %w (%d)", proto.Name(), e.g, engine.ErrMaxRounds, maxRounds)
		}
		res.Rounds = round
		res.TotalMessages += frontier

		e.respDeg = 0
		if e.kept && e.denseRound(frontier, e.lastDeg) {
			e.dense(rule, report)
		} else {
			e.scatter()
			e.respond(rule)
		}

		// The round is observed after its kernel step, while cur still
		// holds its frontier and mark its receivers.
		var stop bool
		var err error
		if materialise {
			e.materialise()
			if opts.Trace {
				res.Trace = append(res.Trace, engine.RoundRecord{Round: round, Sends: append([]engine.Send(nil), e.sends...)})
			}
			stop, err = opts.Observe(engine.RoundRecord{Round: round, Sends: e.sends})
		} else if report {
			stop, err = engine.ObserveFrontier(opts.Observer, engine.Frontier{Round: round, Messages: frontier, Receivers: e.eachReceiver})
		}
		if err != nil {
			return res, fmt.Errorf("bitengine: %s on %s: observer at round %d: %w", proto.Name(), e.g, round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}
		e.advance(rule)
	}
	res.Terminated = true
	return res, nil
}

// denseRound reports whether a round of frontier messages, after a round
// whose responders' degrees sum to lastDeg, runs the dense kernel: whether
// dense's scatter, one store per in-slot of last round's non-responders
// plus one step per row it sweeps, is no larger than push's, one per
// message.
func (e *Engine) denseRound(frontier, lastDeg int) bool {
	return len(e.csr.Targets)-lastDeg+e.csr.N() <= frontier
}

// advance ends a round: it clears what the round leaves behind and makes
// nxt the next round's frontier. The next round's messages are at most
// respDeg, one per slot of this round's responders, so it can run dense
// only if a round of respDeg messages would; only then does this round's
// frontier move to prev and its responders to last. Otherwise both are
// cleared word by word, as their dirty lists allow.
func (e *Engine) advance(rule engine.BitsetRule) {
	if e.kept {
		// Last round's state is spent (a dense round also left Z in prev).
		// Only saturated rounds keep it, so a full clear is cheap beside
		// them.
		clear(e.prev)
		clear(e.last)
	}
	e.kept = e.denseRound(e.respDeg, e.respDeg)
	if e.kept {
		e.lastDeg = e.respDeg
		e.prev, e.cur, e.nxt = e.cur, e.nxt, e.prev
		if rule == engine.RuleComplementOnce {
			e.last, e.fresh = e.fresh, e.last
		} else {
			e.last, e.mark = e.mark, e.last
			e.dirtyMark = e.dirtyMark[:0]
		}
	} else {
		for _, wi := range e.dirtyCur {
			e.cur[wi] = 0
		}
		e.cur, e.nxt = e.nxt, e.cur
		if rule == engine.RuleComplementOnce {
			// fresh's bits are a subset of mark's.
			for _, wi := range e.dirtyMark {
				e.fresh[wi] = 0
			}
		}
	}
	for _, wi := range e.dirtyMark {
		e.mark[wi] = 0
	}
	e.dirtyMark = e.dirtyMark[:0]
	e.dirtyCur, e.dirtyNxt = e.dirtyNxt, e.dirtyCur[:0]
}

// bootstrap seeds the round-1 frontier from the protocol's spontaneous
// sends and pre-marks the bootstrap senders as seen for the once rule (a
// connected origin appears among the senders; an isolated one never
// receives, so its bit is moot).
func (e *Engine) bootstrap(proto engine.Protocol, rule engine.BitsetRule) error {
	for _, s := range proto.Bootstrap() {
		u, v := s.From, s.To
		row := e.csr.Row(u)
		i, found := slices.BinarySearch(row, v)
		if !found {
			return fmt.Errorf("bootstrap send %v crosses a non-edge", s)
		}
		e.setCur(int32(e.csr.Offsets[u]) + int32(i))
		if rule == engine.RuleComplementOnce {
			wi, bit := int32(u>>6), uint64(1)<<(uint(u)&63)
			e.seen[wi] |= bit
		}
	}
	return nil
}

// setCur sets frontier bit s with dirty tracking.
func (e *Engine) setCur(s int32) {
	wi := s >> 6
	if e.cur[wi] == 0 {
		e.dirtyCur = append(e.dirtyCur, wi)
	}
	e.cur[wi] |= 1 << (uint(s) & 63)
}

// scatter delivers the frontier: every set bit e = (u→v) becomes v's
// received-from-u direction bit (via mirror) and marks v as a receiver.
func (e *Engine) scatter() {
	for _, wi := range e.dirtyCur {
		w := e.cur[wi]
		base := int32(wi) << 6
		for w != 0 {
			s := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			me := e.mirror[s]
			e.recv[me>>6] |= 1 << (uint(me) & 63)
			v := e.csr.Targets[s]
			vw := int32(v >> 6)
			if e.mark[vw] == 0 {
				e.dirtyMark = append(e.dirtyMark, vw)
			}
			e.mark[vw] |= 1 << (uint(v) & 63)
		}
	}
}

// respond turns the round's receipts into the next frontier: for every
// marked (and, under the once rule, unseen) node v, OR v's row mask AND-NOT
// its received directions into nxt, word by word over the row span. Every
// receipt lies in a marked row, and each responding row clears its span of
// recv as it reads it. Under the once rule an already-seen row keeps its
// receipts, but nothing reads them: the row never responds again, and the
// next Run's reset clears them.
func (e *Engine) respond(rule engine.BitsetRule) {
	for _, vw := range e.dirtyMark {
		m := e.mark[vw]
		if rule == engine.RuleComplementOnce {
			m &^= e.seen[vw]
			e.seen[vw] |= m
			e.fresh[vw] = m
		}
		base := graph.NodeID(vw) << 6
		for m != 0 {
			v := base + graph.NodeID(bits.TrailingZeros64(m))
			m &= m - 1
			e.respondNode(v)
		}
	}
}

// respondNode sweeps node v's row span, nxt |= rowMask & ^recv, and clears
// the span of recv.
func (e *Engine) respondNode(v graph.NodeID) {
	lo, hi := e.csr.Offsets[v], e.csr.Offsets[v+1]
	e.respDeg += int(hi - lo)
	for wi := lo >> 6; wi <= (hi-1)>>6 && lo < hi; wi++ {
		mask, r := spanMask(wi, lo, hi), e.recv[wi]
		e.recv[wi] = r &^ mask
		if out := mask &^ r; out != 0 {
			e.setNxt(wi, out)
		}
	}
}

// setNxt ORs out into nxt's word wi with dirty tracking.
func (e *Engine) setNxt(wi int32, out uint64) {
	if e.nxt[wi] == 0 {
		e.dirtyNxt = append(e.dirtyNxt, wi)
	}
	e.nxt[wi] |= out
}

// spanMask returns the bits of slot word wi that lie in the row span
// [lo, hi); wi must overlap it.
func spanMask(wi, lo, hi int32) uint64 {
	mask := ^uint64(0)
	if wi<<6 < lo {
		mask <<= uint(lo) & 63
	}
	if (wi+1)<<6 > hi {
		mask &= ^uint64(0) >> (64 - (uint(hi) & 63))
	}
	return mask
}

// dense runs a round from last round's frontier (prev) and responders
// (last) instead of this round's messages (see package doc). It scatters
// Z, the in-slots of last round's non-responders, into prev, which then
// holds Z OR S_{r−1}: the slots of each row on which it did not receive.
// It then sweeps every row in ascending order. A row that received on any
// slot is marked, and responds on prev's bits of its span; under the once
// rule an already-seen row is skipped, or only marked when report is set.
// nxt's words go nonzero in ascending order, so dirtyNxt comes out sorted;
// advance clears prev, Z included.
func (e *Engine) dense(rule engine.BitsetRule, report bool) {
	n, offs, mirror, zs := e.csr.N(), e.csr.Offsets, e.mirror, e.prev
	for ww, f := range e.last {
		idle := ^f
		if rest := n - ww<<6; rest < 64 {
			idle &= uint64(1)<<uint(rest) - 1
		}
		base := ww << 6
		for idle != 0 {
			w := base + bits.TrailingZeros64(idle)
			idle &= idle - 1
			for _, me := range mirror[offs[w]:offs[w+1]] {
				zs[me>>6] |= 1 << (uint(me) & 63)
			}
		}
	}
	once := rule == engine.RuleComplementOnce
	for v := 0; v < n; v++ {
		lo, hi := offs[v], offs[v+1]
		if lo == hi {
			continue
		}
		vw, bit := v>>6, uint64(1)<<(uint(v)&63)
		done := once && e.seen[vw]&bit != 0
		if done && !report {
			continue
		}
		w0, w1 := lo>>6, (hi-1)>>6
		var received uint64
		for wi := w0; wi <= w1; wi++ {
			received |= spanMask(wi, lo, hi) &^ zs[wi]
		}
		if received == 0 {
			continue
		}
		if e.mark[vw] == 0 {
			e.dirtyMark = append(e.dirtyMark, int32(vw))
		}
		e.mark[vw] |= bit
		if done {
			continue
		}
		if once {
			e.seen[vw] |= bit
			e.fresh[vw] |= bit
		}
		e.respDeg += int(hi - lo)
		for wi := w0; wi <= w1; wi++ {
			if out := spanMask(wi, lo, hi) & zs[wi]; out != 0 {
				e.setNxt(wi, out)
			}
		}
	}
}

// eachReceiver yields the round's receivers — the set bits of mark, which
// the kernels fill — in no particular order.
func (e *Engine) eachReceiver(yield func(graph.NodeID) bool) {
	for _, wi := range e.dirtyMark {
		m := e.mark[wi]
		base := graph.NodeID(wi) << 6
		for m != 0 {
			v := base + graph.NodeID(bits.TrailingZeros64(m))
			m &= m - 1
			if !yield(v) {
				return
			}
		}
	}
}

// materialise renders the current frontier as (From, To)-sorted Send
// records into e.sends. Slots ascend row-major over sorted rows, so walking
// the dirty words in order yields the sends already in (From, To) order.
func (e *Engine) materialise() {
	e.sends = e.sends[:0]
	slices.Sort(e.dirtyCur)
	owner := graph.NodeID(-1)
	for _, wi := range e.dirtyCur {
		w := e.cur[wi]
		base := int32(wi) << 6
		for w != 0 {
			s := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			if owner < 0 || int32(e.csr.Offsets[owner+1]) <= s {
				// Owner lookup: the node whose row span contains slot s.
				owner = graph.NodeID(sort.Search(e.csr.N(), func(v int) bool {
					return e.csr.Offsets[v+1] > s
				}))
			}
			e.sends = append(e.sends, engine.Send{From: owner, To: e.csr.Targets[s]})
		}
	}
}
