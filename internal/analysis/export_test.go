package analysis

// SetDiameterLowerBound pins the termination analyzer's two-sweep bound,
// so a test can hand the window decision a bound too small to certify a
// run.
func SetDiameterLowerBound(t *Termination, lb int) { t.lb, t.lbOnce = lb, true }
