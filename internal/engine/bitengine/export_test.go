package bitengine

// SendsCap exposes the capacity of the engine's Send materialisation
// buffer to the external tests: it stays 0 for as long as no round of any
// run on e has been materialised.
func SendsCap(e *Engine) int { return cap(e.sends) }

// DenseRound reports whether e runs a round of frontier messages, after a
// round whose responders' degrees sum to lastDeg, on the dense kernel
// rather than push. Round 1 is always push.
func DenseRound(e *Engine, frontier, lastDeg int) bool {
	e.init()
	return e.denseRound(frontier, lastDeg)
}
