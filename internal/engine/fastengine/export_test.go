package fastengine

// BitmapRound reports whether group orders a round with the given number of
// distinct receivers through e's node bitmap rather than a sort.
func BitmapRound(e *Engine, receivers int) bool { return e.bitmapRound(receivers) }
