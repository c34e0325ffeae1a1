// Package modeltest preserves the pre-registry model runners verbatim as
// frozen reference implementations. internal/async and internal/dynamic
// used to ship bespoke Run functions that serialised every configuration to
// a map[string]int key; the production paths were replaced by the packed
// model engine in internal/model, and these ports exist for exactly two
// purposes:
//
//   - the differential tests in internal/model, which prove on a seeded
//     corpus that the packed engine reproduces both legacy runners'
//     outcomes, certificates, and traces exactly;
//   - the BenchmarkModels string-key baseline, which quantifies what the
//     packed certificate path saves.
//
// Nothing else may import this package; it is deliberately allocation-happy
// and must stay behaviourally frozen. The only deltas from the historical
// code are the adapted adversary call (model.Adversary fills a delay buffer
// instead of returning one, and is handed no view of the messages already
// in flight, which no adversary read) and traces emitted as
// engine.RoundRecords so the tests can compare them with engine.EqualTraces.
package modeltest

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// DefaultMaxRounds mirrors the historical runners' bound.
const DefaultMaxRounds = 1 << 16

// AsyncResult mirrors the historical async.Result, with the outcome mapped
// onto the unified engine.Outcome and the trace onto engine.RoundRecords.
type AsyncResult struct {
	Outcome                 engine.Outcome
	Rounds                  int
	TotalMessages           int
	CycleStart, CycleLength int
	Trace                   []engine.RoundRecord
}

// message is an in-flight copy of M crossing a directed edge.
type message struct {
	from, to  graph.NodeID
	deliverAt int
}

// AsyncRun is the frozen port of the historical async.Run: asynchronous
// amnesiac flooding with a map[string]int configuration-repeat detector.
func AsyncRun(g *graph.Graph, adv model.Adversary, maxRounds int, trace bool, origins ...graph.NodeID) (AsyncResult, error) {
	if len(origins) == 0 {
		return AsyncResult{}, fmt.Errorf("modeltest: need at least one origin on %s", g)
	}
	for _, o := range origins {
		if !g.HasNode(o) {
			return AsyncResult{}, fmt.Errorf("modeltest: origin %d is not a node of %s", o, g)
		}
	}
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	var res AsyncResult

	var inFlight []message
	bootstrap := make([]graph.Edge, 0)
	for _, o := range sortedUnique(origins) {
		for _, nbr := range g.Neighbors(o) {
			bootstrap = append(bootstrap, graph.Edge{U: o, V: nbr})
		}
	}
	delays := scheduleBatch(adv, bootstrap)
	for i, e := range bootstrap {
		inFlight = append(inFlight, message{from: e.U, to: e.V, deliverAt: 1 + delays[i]})
	}

	seen := map[string]int{} // configuration key -> round first seen
	for round := 1; len(inFlight) > 0; round++ {
		if round > maxRounds {
			res.Outcome = engine.OutcomeRoundLimit
			res.Rounds = maxRounds
			return res, nil
		}
		if adv.Deterministic() {
			key := configKey(inFlight, round)
			if first, ok := seen[key]; ok {
				res.Outcome = engine.OutcomeCycle
				res.CycleStart = first
				res.CycleLength = round - first
				res.Rounds = round
				return res, nil
			}
			seen[key] = round
		}

		var due, later []message
		for _, m := range inFlight {
			if m.deliverAt == round {
				due = append(due, m)
			} else {
				later = append(later, m)
			}
		}
		if len(due) == 0 {
			inFlight = later
			res.Rounds = round
			continue
		}
		slices.SortFunc(due, func(a, b message) int {
			if a.from != b.from {
				return int(a.from - b.from)
			}
			return int(a.to - b.to)
		})
		res.Rounds = round
		res.TotalMessages += len(due)
		if trace {
			sends := make([]engine.Send, len(due))
			for i, m := range due {
				sends[i] = engine.Send{From: m.from, To: m.to}
			}
			res.Trace = append(res.Trace, engine.RoundRecord{Round: round, Sends: sends})
		}

		batch := respond(g, due)
		delays := scheduleBatch(adv, batch)
		for i, e := range batch {
			later = append(later, message{from: e.U, to: e.V, deliverAt: round + 1 + delays[i]})
		}
		inFlight = later
	}
	res.Outcome = engine.OutcomeTerminated
	return res, nil
}

// respond computes the next-round send batch, sorted by (From, To).
func respond(g *graph.Graph, due []message) []graph.Edge {
	senders := map[graph.NodeID][]graph.NodeID{}
	for _, m := range due {
		senders[m.to] = append(senders[m.to], m.from)
	}
	receivers := make([]graph.NodeID, 0, len(senders))
	for v := range senders {
		receivers = append(receivers, v)
	}
	slices.Sort(receivers)

	var batch []graph.Edge
	for _, v := range receivers {
		from := senders[v]
		slices.Sort(from)
		i := 0
		for _, nbr := range g.Neighbors(v) {
			for i < len(from) && from[i] < nbr {
				i++
			}
			if i < len(from) && from[i] == nbr {
				continue
			}
			batch = append(batch, graph.Edge{U: v, V: nbr})
		}
	}
	return batch
}

// scheduleBatch invokes the adversary and sanitises its output exactly like
// the historical runner: negative delays are clamped to zero.
func scheduleBatch(adv model.Adversary, batch []graph.Edge) []int {
	out := make([]int, len(batch))
	if len(batch) == 0 {
		return out
	}
	adv.Delays(batch, out)
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// configKey is the historical string serialisation of the in-flight
// multiset with delays relative to the current round — the allocation
// baseline the packed Detector replaced.
func configKey(inFlight []message, round int) string {
	entries := make([]string, len(inFlight))
	for i, m := range inFlight {
		entries[i] = strconv.Itoa(int(m.from)) + ">" + strconv.Itoa(int(m.to)) + "@" + strconv.Itoa(m.deliverAt-round)
	}
	slices.Sort(entries)
	return strings.Join(entries, ",")
}

// sortedUnique returns the sorted distinct node IDs of origins.
func sortedUnique(origins []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), origins...)
	slices.Sort(out)
	return slices.Compact(out)
}

// DynamicResult mirrors the historical dynamic.Result.
type DynamicResult struct {
	Outcome                 engine.Outcome
	Rounds                  int
	Delivered               int
	Lost                    int
	Covered                 []bool
	CycleStart, CycleLength int
	Trace                   []engine.RoundRecord
}

// CoverageCount returns how many nodes hold or have held M.
func (r DynamicResult) CoverageCount() int {
	n := 0
	for _, c := range r.Covered {
		if c {
			n++
		}
	}
	return n
}

// DynamicRun is the frozen port of the historical dynamic.Run: amnesiac
// flooding over a dynamic edge schedule with a map[string]int
// (configuration, phase)-repeat detector.
func DynamicRun(g *graph.Graph, sched model.Schedule, maxRounds int, trace bool, origins ...graph.NodeID) (DynamicResult, error) {
	if len(origins) == 0 {
		return DynamicResult{}, fmt.Errorf("modeltest: need at least one origin on %s", g)
	}
	for _, o := range origins {
		if !g.HasNode(o) {
			return DynamicResult{}, fmt.Errorf("modeltest: origin %d is not a node of %s", o, g)
		}
	}
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	res := DynamicResult{Covered: make([]bool, g.N())}

	var pending []engine.Send
	for _, o := range origins {
		res.Covered[o] = true
		for _, nbr := range g.Neighbors(o) {
			pending = append(pending, engine.Send{From: o, To: nbr})
		}
	}
	pending = dedup(pending)

	period := sched.Period()
	settled := 0
	if s, ok := sched.(model.Settler); ok {
		settled = s.SettledAfter()
	}
	seen := map[string]int{}
	for round := 1; len(pending) > 0; round++ {
		if round > maxRounds {
			res.Outcome = engine.OutcomeRoundLimit
			res.Rounds = maxRounds
			return res, nil
		}
		if period > 0 && round > settled {
			key := strconv.Itoa(round%period) + "|" + sendsKey(pending)
			if first, ok := seen[key]; ok {
				res.Outcome = engine.OutcomeCycle
				res.CycleStart = first
				res.CycleLength = round - first
				res.Rounds = round
				return res, nil
			}
			seen[key] = round
		}
		res.Rounds = round

		var delivered []engine.Send
		for _, s := range pending {
			if sched.Alive(round, graph.Edge{U: s.From, V: s.To}) {
				delivered = append(delivered, s)
			} else {
				res.Lost++
			}
		}
		res.Delivered += len(delivered)
		if trace {
			res.Trace = append(res.Trace, engine.RoundRecord{
				Round: round,
				Sends: append([]engine.Send(nil), delivered...),
			})
		}

		byTo := map[graph.NodeID][]graph.NodeID{}
		for _, s := range delivered {
			res.Covered[s.To] = true
			byTo[s.To] = append(byTo[s.To], s.From)
		}
		receivers := make([]graph.NodeID, 0, len(byTo))
		for v := range byTo {
			receivers = append(receivers, v)
		}
		slices.Sort(receivers)
		var next []engine.Send
		for _, v := range receivers {
			senders := byTo[v]
			slices.Sort(senders)
			i := 0
			for _, nbr := range g.Neighbors(v) {
				for i < len(senders) && senders[i] < nbr {
					i++
				}
				if i < len(senders) && senders[i] == nbr {
					continue
				}
				next = append(next, engine.Send{From: v, To: nbr})
			}
		}
		pending = dedup(next)
	}
	res.Outcome = engine.OutcomeTerminated
	return res, nil
}

func dedup(sends []engine.Send) []engine.Send {
	if len(sends) == 0 {
		return nil
	}
	slices.SortFunc(sends, func(a, b engine.Send) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	return slices.Compact(sends)
}

func sendsKey(sends []engine.Send) string {
	parts := make([]string, len(sends))
	for i, s := range sends {
		parts[i] = strconv.Itoa(int(s.From)) + ">" + strconv.Itoa(int(s.To))
	}
	return strings.Join(parts, ",")
}
