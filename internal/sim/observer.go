package sim

import (
	"amnesiacflood/internal/engine"
)

// MultiObserver fans one round stream out to several observers. Observers
// are invoked in slice order; the first error aborts immediately, and the
// round's remaining observers still see the round before a stop request
// takes effect — so every observer of a stopped run has observed the same
// prefix. It is frontier-only exactly when every member is, so a bitset run
// observed by frontier-level members alone never builds Send records.
type MultiObserver []engine.RoundObserver

var _ engine.FrontierObserver = MultiObserver(nil)

// ObserveRound implements engine.RoundObserver.
func (m MultiObserver) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return m.each(func(obs engine.RoundObserver) (bool, error) { return obs.ObserveRound(rec) })
}

// FrontierOnly implements engine.FrontierObserver.
func (m MultiObserver) FrontierOnly() bool {
	for _, obs := range m {
		if !engine.FrontierOnly(obs) {
			return false
		}
	}
	return true
}

// ObserveFrontier implements engine.FrontierObserver.
func (m MultiObserver) ObserveFrontier(f engine.Frontier) (bool, error) {
	return m.each(func(obs engine.RoundObserver) (bool, error) { return engine.ObserveFrontier(obs, f) })
}

// each invokes observe on every non-nil member in order, returning the first
// error or the OR of the stop requests.
func (m MultiObserver) each(observe func(engine.RoundObserver) (bool, error)) (bool, error) {
	stop := false
	for _, obs := range m {
		if obs == nil {
			continue
		}
		s, err := observe(obs)
		if err != nil {
			return false, err
		}
		stop = stop || s
	}
	return stop, nil
}

// TraceRecorder accumulates a deep copy of every observed round — the
// observer equivalent of Options.Trace, usable alongside other observers
// and reusable across runs via Reset. The recorded rounds are safe to
// retain: Sends are copied out of the engine's arenas.
type TraceRecorder struct {
	// Trace holds one record per observed round, in order.
	Trace []engine.RoundRecord
}

var _ engine.RoundObserver = (*TraceRecorder)(nil)

// ObserveRound implements engine.RoundObserver; it never stops the run.
func (t *TraceRecorder) ObserveRound(rec engine.RoundRecord) (bool, error) {
	t.Trace = append(t.Trace, engine.RoundRecord{
		Round: rec.Round,
		Sends: append([]engine.Send(nil), rec.Sends...),
	})
	return false, nil
}

// Reset clears the recorder for reuse, keeping the round-slice capacity.
func (t *TraceRecorder) Reset() { t.Trace = t.Trace[:0] }

// RoundBudget stops a run after the given number of rounds — round-budget
// serving in observer form: the result covers exactly the first Budget
// rounds (fewer if the run ends first). It is stateless (the decision
// reads the record's round number), so one RoundBudget serves every run of
// a reused Session or RunBatch without resetting. It needs only the round
// number, so it observes at frontier level.
type RoundBudget struct {
	// Budget is how many rounds to allow; <= 0 stops after the first.
	Budget int
}

var _ engine.FrontierObserver = (*RoundBudget)(nil)

// ObserveRound implements engine.RoundObserver.
func (b *RoundBudget) ObserveRound(rec engine.RoundRecord) (bool, error) {
	return b.ObserveFrontier(rec.Frontier())
}

// FrontierOnly implements engine.FrontierObserver.
func (b *RoundBudget) FrontierOnly() bool { return true }

// ObserveFrontier implements engine.FrontierObserver.
func (b *RoundBudget) ObserveFrontier(f engine.Frontier) (bool, error) {
	return f.Round >= b.Budget, nil
}
