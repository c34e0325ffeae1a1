// Package bitengine is the word-parallel synchronous round engine for
// flooding protocols whose whole round is a set operation over
// received-from directions (engine.BitsetProtocol). It produces traces
// byte-identical to the sequential reference engine while never
// materialising per-message Send records on the hot path.
//
// The state of an amnesiac-flooding round is exactly "which directed edges
// carry the message" — a subset of the 2m CSR edge slots. The engine packs
// that frontier into []uint64 bitsets and replaces the per-message loops of
// the other engines with three word-granular passes:
//
//   - Scatter: for every set bit e = (u→v) in the current frontier, set the
//     reciprocal slot mirror[e] in the receive bitset (v's
//     received-from-u direction) and mark v in a per-node bitset. mirror is
//     the precomputed permutation pairing each directed slot with its
//     reverse slot.
//   - Respond: for every marked node v, OR rowMask(v) AND-NOT receive into
//     the next frontier, word by word over v's contiguous CSR row span —
//     the paper's "forward to everyone you did not just hear from" as a
//     branch-free word sweep. Classic flooding is the same sweep gated by a
//     per-node seen bit (engine.RuleComplementOnce).
//   - Clear and swap: per-buffer dirty-word lists record which words went
//     nonzero, so clearing costs O(frontier words) rather than O(m/64) —
//     essential on path-like graphs whose floods run Θ(n) rounds with a
//     constant-size frontier.
//
// Rounds whose frontier covers at least half of the directed slots flip to a
// pull kernel instead: every row gathers its received-from bits directly
// through the mirror permutation (pure loads, no scattered read-modify-write,
// no dirty-list bookkeeping) and ORs its response row-locally into the next
// frontier. Push touches O(frontier) state and wins while the flood is
// ramping up; pull touches O(m) with a smaller constant and wins once the
// flood saturates — the regime million-node dense instances spend almost all
// their rounds in. Both kernels compute the identical next-frontier bitset,
// so the switch is invisible in traces.
//
// Frontiers are double-buffered and every buffer is reused across rounds
// and runs, so a warmed-up engine allocates nothing per round. Rounds are
// materialised into sorted Send records only when Options.Trace is set or
// the observer is not frontier-only (engine.FrontierOnly); a frontier-only
// observer is handed an engine.Frontier instead — the popcount the round
// loop already takes, plus the receivers the push kernel marks anyway (the
// pull kernel marks them only for such an observer).
//
// An optional sharded mode partitions the dirty *words* (not nodes) of a
// round across worker goroutines. All writes are idempotent bitwise ORs
// into word-aligned slots, and OR is commutative and associative, so the
// final bitset state — and therefore every materialised trace — is
// byte-identical regardless of worker interleaving; atomic OR's returned
// old value dedups the dirty-word lists without coordination.
//
// A degree-sorted relabeling pass (graph.DegreeSorted, on by default) packs
// high-degree rows at the front of the arena for cache locality; traces are
// mapped back through the inverse permutation and re-sorted, so relabeling
// is invisible in every output.
package bitengine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
)

// ErrUnsupportedProtocol is returned (wrapped) when the protocol does not
// implement engine.BitsetProtocol. Unlike the other engines, this one never
// calls NewNode or AppendSends — it executes the declared BitsetRule
// directly — so protocols with bespoke per-node behaviour cannot fall back.
var ErrUnsupportedProtocol = errors.New("protocol does not declare a bitset rule (engine.BitsetProtocol)")

// DefaultParallelThreshold is the frontier size, in dirty 64-bit words,
// below which the sharded mode runs a round sequentially when
// engine.Options.ParallelThreshold is 0. Sharding a handful of words costs
// more in goroutine wakeups than the OR sweep itself.
const DefaultParallelThreshold = 64

// Supports reports whether proto can run on this engine.
func Supports(proto engine.Protocol) bool {
	_, ok := proto.(engine.BitsetProtocol)
	return ok
}

// Engine executes bitset-capable protocols on one graph. It owns all
// frontier state, so a single Engine amortises setup (mirror permutation,
// relabeling, bitset arenas) across many runs; it is not safe for
// concurrent use (run several Engines for that).
type Engine struct {
	orig    *graph.Graph
	workers int
	relabel bool

	ready bool
	run   *graph.Graph   // graph the kernel runs on (== orig unless relabeled)
	perm  []graph.NodeID // orig → run labels; nil when identity
	inv   []graph.NodeID // run → orig labels; nil when identity
	csr   graph.CSR
	// mirror pairs each directed CSR slot e = (u→v) with the reverse slot
	// (v→u), so scattering a send sets the receiver's direction bit with
	// one permuted store.
	mirror []int32

	cur, nxt  []uint64 // frontier bitsets over directed slots, double-buffered
	recv      []uint64 // received-from-direction bits of the round
	mark      []uint64 // nodes receiving this round (per-node bits)
	seen      []uint64 // nodes already done (RuleComplementOnce only)
	dirtyCur  []int32  // nonzero word indices of cur
	dirtyNxt  []int32  // nonzero word indices of nxt
	dirtyRecv []int32  // nonzero word indices of recv
	dirtyMark []int32  // nonzero word indices of mark

	// rowBuf holds one row's gathered receive words during a pull round;
	// denseScan records that the previous round was a pull, whose row-local
	// writes skip dirty-list bookkeeping, so the next round must rebuild
	// dirtyCur with a full sweep.
	rowBuf    []uint64
	denseScan bool

	sends []engine.Send // round materialisation buffer (trace/Send-level observer only)

	shardDirty [][]int32  // per-worker dirty-list arenas (sharded mode)
	shardBuf   [][]uint64 // per-worker row gather buffers (sharded pull)
}

// New returns a sequential engine for g with degree-sorted relabeling
// enabled.
func New(g *graph.Graph) *Engine {
	return &Engine{orig: g, workers: 1, relabel: true}
}

// Parallel sets the number of sweep workers and returns e for chaining.
// workers <= 0 means GOMAXPROCS. Traces stay byte-identical: the sharded
// passes only perform commutative OR writes, so worker interleaving cannot
// change the resulting bitsets.
func (e *Engine) Parallel(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.workers = workers
	return e
}

// Relabel toggles the degree-sorted relabeling pass (default on) and
// returns e for chaining. Must be called before the first Run.
func (e *Engine) Relabel(enabled bool) *Engine {
	if e.ready && enabled != e.relabel {
		panic("bitengine: Relabel after first Run")
	}
	e.relabel = enabled
	return e
}

// Run is the one-shot convenience wrapper: a fresh sequential engine per
// call. Reuse an Engine for allocation-free repeated runs.
func Run(ctx context.Context, g *graph.Graph, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	return New(g).Run(ctx, proto, opts)
}

// RunParallel is Run with GOMAXPROCS sweep workers.
func RunParallel(ctx context.Context, g *graph.Graph, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	return New(g).Parallel(0).Run(ctx, proto, opts)
}

// init builds the run graph, mirror permutation, and bitset arenas once per
// Engine.
func (e *Engine) init() {
	if e.ready {
		return
	}
	e.ready = true
	e.run = e.orig
	if e.relabel {
		rg, perm, inv := graph.DegreeSorted(e.orig)
		if rg != e.orig { // identity permutations keep the fast paths below
			e.run, e.perm, e.inv = rg, perm, inv
		}
	}
	e.csr = e.run.CSR()
	n, slots := e.csr.N(), len(e.csr.Targets)

	e.mirror = make([]int32, slots)
	cursor := make([]int32, n)
	for u := 0; u < n; u++ {
		lo, hi := e.csr.Offsets[u], e.csr.Offsets[u+1]
		for s := lo; s < hi; s++ {
			v := e.csr.Targets[s]
			// Sweeping u ascending visits row v's back-targets in ascending
			// order, so a per-node cursor yields u's rank in row v directly.
			e.mirror[s] = e.csr.Offsets[v] + cursor[v]
			cursor[v]++
		}
	}

	slotWords := (slots + 63) / 64
	nodeWords := (n + 63) / 64
	e.cur = make([]uint64, slotWords)
	e.nxt = make([]uint64, slotWords)
	e.recv = make([]uint64, slotWords)
	e.mark = make([]uint64, nodeWords)
	e.seen = make([]uint64, nodeWords)

	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := int(e.csr.Offsets[v+1] - e.csr.Offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	// A row of degree d spans at most d/64+2 words of the slot bitsets.
	e.rowBuf = make([]uint64, maxDeg>>6+2)
}

// reset clears all per-run state. Runs that end early (observer stop,
// cancellation, round limit) leave bits behind, so every Run starts from a
// wiped slate; the wipe is a handful of memclr sweeps, far below the cost
// of any run.
func (e *Engine) reset() {
	clear(e.cur)
	clear(e.nxt)
	clear(e.recv)
	clear(e.mark)
	clear(e.seen)
	e.dirtyCur = e.dirtyCur[:0]
	e.dirtyNxt = e.dirtyNxt[:0]
	e.dirtyRecv = e.dirtyRecv[:0]
	e.dirtyMark = e.dirtyMark[:0]
	e.denseScan = false
}

// Run executes proto to termination or the round limit, with the same
// semantics, results, and traces as engine.Run. Cancellation of ctx is
// checked once per round, before the round is counted. Protocols without a
// bitset rule fail immediately with ErrUnsupportedProtocol (wrapped).
func (e *Engine) Run(ctx context.Context, proto engine.Protocol, opts engine.Options) (engine.Result, error) {
	bp, ok := proto.(engine.BitsetProtocol)
	if !ok {
		return engine.Result{Protocol: proto.Name()}, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.orig, ErrUnsupportedProtocol)
	}
	rule := bp.BitsetRule()
	if rule != engine.RuleComplement && rule != engine.RuleComplementOnce {
		return engine.Result{Protocol: proto.Name()}, fmt.Errorf("bitengine: %s on %s: unknown bitset rule %d: %w", proto.Name(), e.orig, rule, ErrUnsupportedProtocol)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = engine.DefaultMaxRounds
	}
	minWords := opts.ParallelThreshold
	if minWords == 0 {
		minWords = DefaultParallelThreshold
	}
	e.init()
	e.reset()
	res := engine.Result{Protocol: proto.Name()}

	if err := e.bootstrap(proto, rule); err != nil {
		return res, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.orig, err)
	}
	// Send records are built only for a trace or a Send-level observer. A
	// frontier-only observer gets the round's Frontier instead: the popcount
	// below plus the receivers in mark, which push rounds fill anyway and
	// pull rounds fill only when report is set. Without an observer neither
	// happens.
	materialise := opts.Trace || !engine.FrontierOnly(opts.Observer)
	report := opts.Observer != nil && !materialise
	for round := 1; ; round++ {
		frontier := 0
		if e.denseScan {
			// The previous round ran the pull kernel, whose row-local writes
			// skip dirty-list bookkeeping; one full sweep rebuilds the
			// (sorted) list. Pull only fires on saturated frontiers, so the
			// sweep is proportional to the work just done.
			e.dirtyCur = e.dirtyCur[:0]
			for wi, w := range e.cur {
				if w != 0 {
					e.dirtyCur = append(e.dirtyCur, int32(wi))
					frontier += bits.OnesCount64(w)
				}
			}
		} else {
			for _, wi := range e.dirtyCur {
				frontier += bits.OnesCount64(e.cur[wi])
			}
		}
		if len(e.dirtyCur) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("bitengine: %s on %s: %w", proto.Name(), e.orig, err)
		}
		if round > maxRounds {
			return res, fmt.Errorf("bitengine: %s on %s: %w (%d)", proto.Name(), e.orig, engine.ErrMaxRounds, maxRounds)
		}
		res.Rounds = round
		res.TotalMessages += frontier

		// Saturated rounds run the pull kernel, which gathers rows directly
		// and touches none of the recv/mark state unless it must report
		// receivers (see package doc).
		pull := 2*frontier >= len(e.csr.Targets)
		sharded := e.workers > 1 && len(e.dirtyCur) >= minWords
		switch {
		case pull && sharded:
			e.pullSharded(rule, report)
		case pull:
			e.pull(rule, report)
		case sharded:
			e.scatterSharded()
			e.respondSharded(rule)
		default:
			e.scatter()
			e.respond(rule)
		}
		e.denseScan = pull
		if pull && report {
			for wi, w := range e.mark {
				if w != 0 {
					e.dirtyMark = append(e.dirtyMark, int32(wi))
				}
			}
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
			return res, fmt.Errorf("bitengine: %s on %s: observer at round %d: %w", proto.Name(), e.orig, round, err)
		}
		if stop {
			res.Stopped = true
			return res, nil
		}

		// Sparse clears: only words that went nonzero this round (a pull
		// round leaves recv and nxt's dirty list empty).
		for _, wi := range e.dirtyRecv {
			e.recv[wi] = 0
		}
		e.dirtyRecv = e.dirtyRecv[:0]
		for _, wi := range e.dirtyMark {
			e.mark[wi] = 0
		}
		e.dirtyMark = e.dirtyMark[:0]
		for _, wi := range e.dirtyCur {
			e.cur[wi] = 0
		}
		e.dirtyCur, e.dirtyNxt = e.dirtyNxt, e.dirtyCur[:0]
		e.cur, e.nxt = e.nxt, e.cur
	}
	res.Terminated = true
	return res, nil
}

// bootstrap seeds the round-1 frontier from the protocol's spontaneous
// sends, mapped through the relabeling permutation, and pre-marks the
// bootstrap senders as seen for the once rule (a connected origin appears
// among the senders; an isolated one never receives, so its bit is moot).
func (e *Engine) bootstrap(proto engine.Protocol, rule engine.BitsetRule) error {
	for _, s := range proto.Bootstrap() {
		u, v := s.From, s.To
		if e.perm != nil {
			u, v = e.perm[u], e.perm[v]
		}
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
			mw := me >> 6
			if e.recv[mw] == 0 {
				e.dirtyRecv = append(e.dirtyRecv, mw)
			}
			e.recv[mw] |= 1 << (uint(me) & 63)
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
// its received directions into nxt, word by word over the row span.
func (e *Engine) respond(rule engine.BitsetRule) {
	for _, vw := range e.dirtyMark {
		m := e.mark[vw]
		if rule == engine.RuleComplementOnce {
			m &^= e.seen[vw]
			e.seen[vw] |= m
		}
		base := graph.NodeID(vw) << 6
		for m != 0 {
			v := base + graph.NodeID(bits.TrailingZeros64(m))
			m &= m - 1
			e.respondNode(v)
		}
	}
}

// respondNode sweeps node v's row span: nxt |= rowMask & ^recv.
func (e *Engine) respondNode(v graph.NodeID) {
	lo, hi := int32(e.csr.Offsets[v]), int32(e.csr.Offsets[v+1])
	for wi := lo >> 6; wi <= (hi-1)>>6 && lo < hi; wi++ {
		mask := ^uint64(0)
		if s := wi << 6; s < lo {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if end := (wi + 1) << 6; end > hi {
			mask &= ^uint64(0) >> (64 - (uint(hi) & 63))
		}
		if bitsOut := mask &^ e.recv[wi]; bitsOut != 0 {
			if e.nxt[wi] == 0 {
				e.dirtyNxt = append(e.dirtyNxt, wi)
			}
			e.nxt[wi] |= bitsOut
		}
	}
}

// pull runs one saturated round in gather mode: every row reads its
// received-from bits straight out of the frontier (receipt on slot s is
// cur[mirror[s]]) and ORs its response row-locally into nxt. Compared to
// scatter/respond this is pure loads instead of scattered read-modify-writes,
// no branchy dirty-list maintenance, and sequential stores — a smaller
// constant over O(m) work, which wins once the frontier covers most slots.
// recv and all dirty lists stay untouched; the caller sets denseScan so the
// next round rebuilds dirtyCur with a full sweep. mark stays untouched too
// unless report is set, in which case every receiving row — under the once
// rule, already-seen rows included — sets its mark bit for the round's
// Frontier.
func (e *Engine) pull(rule engine.BitsetRule, report bool) {
	e.pullRows(rule, 0, e.csr.N(), e.rowBuf, false, report)
}

// pullRows gathers and responds for rows [vlo, vhi). When shared is true the
// nxt ORs are atomic: row ranges of different workers can straddle a slot
// word. buf must hold the widest row span in the range.
func (e *Engine) pullRows(rule engine.BitsetRule, vlo, vhi int, buf []uint64, shared, report bool) {
	cur, mirror, nxt := e.cur, e.mirror, e.nxt
	for v := vlo; v < vhi; v++ {
		lo, hi := int32(e.csr.Offsets[v]), int32(e.csr.Offsets[v+1])
		if lo >= hi {
			continue
		}
		bit := uint64(1) << (uint(v) & 63)
		done := rule == engine.RuleComplementOnce && e.seen[v>>6]&bit != 0
		if done && !report {
			continue
		}
		w0 := lo >> 6
		words := (hi-1)>>6 - w0 + 1
		var received uint64
		s := lo
		for k := int32(0); k < words; k++ {
			end := (w0 + k + 1) << 6
			if end > hi {
				end = hi
			}
			var rw uint64
			for ; s < end; s++ {
				me := mirror[s]
				rw |= ((cur[me>>6] >> (uint(me) & 63)) & 1) << (uint(s) & 63)
			}
			buf[k] = rw
			received |= rw
		}
		if received == 0 {
			continue
		}
		if report {
			e.mark[v>>6] |= bit
		}
		if done {
			continue
		}
		if rule == engine.RuleComplementOnce {
			e.seen[v>>6] |= bit
		}
		for k := int32(0); k < words; k++ {
			wi := w0 + k
			mask := ^uint64(0)
			if sBase := wi << 6; sBase < lo {
				mask &= ^uint64(0) << (uint(lo) & 63)
			}
			if end := (wi + 1) << 6; end > hi {
				mask &= ^uint64(0) >> (64 - (uint(hi) & 63))
			}
			if out := mask &^ buf[k]; out != 0 {
				if shared {
					atomic.OrUint64(&nxt[wi], out)
				} else {
					nxt[wi] |= out
				}
			}
		}
	}
}

// pullSharded partitions rows across workers in contiguous ranges balanced
// by slot count and snapped to 64-row boundaries, so every seen and mark word
// belongs to exactly one worker and stays plain; nxt words straddling a range
// boundary can be shared, so sharded pull ORs nxt atomically. OR commutes,
// so the resulting bitset — and every trace — is byte-identical to the
// sequential pull.
func (e *Engine) pullSharded(rule engine.BitsetRule, report bool) {
	n := e.csr.N()
	workers := e.workers
	if maxShards := (n + 63) / 64; workers > maxShards {
		workers = maxShards
	}
	if workers <= 1 {
		e.pull(rule, report)
		return
	}
	e.growBufs(workers)
	var wg sync.WaitGroup
	prev := 0
	for w := 0; w < workers && prev < n; w++ {
		end := n
		if w < workers-1 {
			target := int32(len(e.csr.Targets) * (w + 1) / workers)
			end = sort.Search(n, func(v int) bool { return e.csr.Offsets[v+1] >= target })
			if end = (end + 64) &^ 63; end > n {
				end = n
			}
		}
		if end <= prev {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			e.pullRows(rule, lo, hi, e.shardBuf[w], true, report)
		}(w, prev, end)
		prev = end
	}
	wg.Wait()
}

// growBufs ensures k per-worker row gather buffers exist.
func (e *Engine) growBufs(k int) {
	for len(e.shardBuf) < k {
		e.shardBuf = append(e.shardBuf, make([]uint64, len(e.rowBuf)))
	}
}

// eachReceiver yields the round's receivers — the set bits of mark, which
// the kernels fill — in original labels, in no particular order.
func (e *Engine) eachReceiver(yield func(graph.NodeID) bool) {
	for _, wi := range e.dirtyMark {
		m := e.mark[wi]
		base := graph.NodeID(wi) << 6
		for m != 0 {
			v := base + graph.NodeID(bits.TrailingZeros64(m))
			m &= m - 1
			if e.inv != nil {
				v = e.inv[v]
			}
			if !yield(v) {
				return
			}
		}
	}
}

// materialise renders the current frontier as (From, To)-sorted Send
// records into e.sends. Slots ascend row-major, so without relabeling the
// bits already come out in (From, To) order; with relabeling the sends are
// mapped back through inv and re-sorted.
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
			from, to := owner, e.csr.Targets[s]
			if e.inv != nil {
				from, to = e.inv[from], e.inv[to]
			}
			e.sends = append(e.sends, engine.Send{From: from, To: to})
		}
	}
	if e.inv != nil {
		slices.SortFunc(e.sends, func(a, b engine.Send) int {
			if a.From != b.From {
				return int(a.From - b.From)
			}
			return int(a.To - b.To)
		})
	}
}

// scatterSharded is scatter with the dirty frontier words partitioned
// across workers. recv and mark words can be shared between shards (mirror
// and Targets point anywhere), so those ORs are atomic; the old value
// returned by atomic.Or elects exactly one worker to dirty-list each word.
func (e *Engine) scatterSharded() {
	workers := e.workers
	if workers > len(e.dirtyCur) {
		workers = len(e.dirtyCur)
	}
	e.growShards(2 * workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(e.dirtyCur) * w / workers
		hi := len(e.dirtyCur) * (w + 1) / workers
		wg.Add(1)
		go func(w int, words []int32) {
			defer wg.Done()
			dRecv := e.shardDirty[2*w][:0]
			dMark := e.shardDirty[2*w+1][:0]
			for _, wi := range words {
				word := e.cur[wi]
				base := int32(wi) << 6
				for word != 0 {
					s := base + int32(bits.TrailingZeros64(word))
					word &= word - 1
					me := e.mirror[s]
					if atomic.OrUint64(&e.recv[me>>6], 1<<(uint(me)&63)) == 0 {
						dRecv = append(dRecv, me>>6)
					}
					v := e.csr.Targets[s]
					if atomic.OrUint64(&e.mark[v>>6], 1<<(uint(v)&63)) == 0 {
						dMark = append(dMark, int32(v>>6))
					}
				}
			}
			e.shardDirty[2*w] = dRecv
			e.shardDirty[2*w+1] = dMark
		}(w, e.dirtyCur[lo:hi])
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		e.dirtyRecv = append(e.dirtyRecv, e.shardDirty[2*w]...)
		e.dirtyMark = append(e.dirtyMark, e.shardDirty[2*w+1]...)
	}
}

// respondSharded is respond with the dirty mark words partitioned across
// workers. Each mark word (and its aligned seen word) belongs to exactly
// one shard, so the seen update stays plain; rows of nodes from different
// shards can overlap in nxt words, so those ORs are atomic.
func (e *Engine) respondSharded(rule engine.BitsetRule) {
	workers := e.workers
	if workers > len(e.dirtyMark) {
		workers = len(e.dirtyMark)
	}
	if workers <= 1 {
		e.respond(rule)
		return
	}
	e.growShards(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(e.dirtyMark) * w / workers
		hi := len(e.dirtyMark) * (w + 1) / workers
		wg.Add(1)
		go func(w int, words []int32) {
			defer wg.Done()
			dNxt := e.shardDirty[w][:0]
			for _, vw := range words {
				m := e.mark[vw]
				if rule == engine.RuleComplementOnce {
					m &^= e.seen[vw]
					e.seen[vw] |= m
				}
				base := graph.NodeID(vw) << 6
				for m != 0 {
					v := base + graph.NodeID(bits.TrailingZeros64(m))
					m &= m - 1
					lo, hi := int32(e.csr.Offsets[v]), int32(e.csr.Offsets[v+1])
					for wi := lo >> 6; wi <= (hi-1)>>6 && lo < hi; wi++ {
						mask := ^uint64(0)
						if s := wi << 6; s < lo {
							mask &= ^uint64(0) << (uint(lo) & 63)
						}
						if end := (wi + 1) << 6; end > hi {
							mask &= ^uint64(0) >> (64 - (uint(hi) & 63))
						}
						if bitsOut := mask &^ e.recv[wi]; bitsOut != 0 {
							if atomic.OrUint64(&e.nxt[wi], bitsOut) == 0 {
								dNxt = append(dNxt, wi)
							}
						}
					}
				}
			}
			e.shardDirty[w] = dNxt
		}(w, e.dirtyMark[lo:hi])
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		e.dirtyNxt = append(e.dirtyNxt, e.shardDirty[w]...)
	}
}

// growShards ensures k per-worker dirty-list arenas exist.
func (e *Engine) growShards(k int) {
	for len(e.shardDirty) < k {
		e.shardDirty = append(e.shardDirty, nil)
	}
}
