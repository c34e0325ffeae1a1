package bitengine

// SendsCap exposes the capacity of the engine's Send materialisation
// buffer to the external tests: it stays 0 for as long as no round of any
// run on e has been materialised.
func SendsCap(e *Engine) int { return cap(e.sends) }
