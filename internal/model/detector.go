package model

// Detector certifies non-termination by configuration repetition. Callers
// feed it one packed configuration per round — a canonically ordered
// []uint64 encoding of the global state; the Engine's is the phase word,
// round mod period, followed by the in-flight multiset as sorted
// (remaining delay, edge index) words — and it reports the first round an
// equal configuration was seen.
//
// It replaces the two historical map[string]int detectors that serialised
// every configuration to a string per round: configurations are now hashed
// word-wise (FNV-1a over the packed words) into a map of arena offsets, and
// a hash hit is verified word-for-word against the stored configuration
// before a repeat is reported, so hash collisions can never fabricate a
// certificate. All storage is amortised: recorded configurations append to
// one growing arena, so the steady-state per-round cost is the hash and the
// map insert.
//
// A Detector is not safe for concurrent use; Reset recycles it (and its
// arena capacity) across runs.
type Detector struct {
	seen  map[uint64][]detEntry
	arena []uint64
}

// detEntry locates one recorded configuration: the round it was seen and
// its window in the arena.
type detEntry struct {
	round  int
	off, n int
}

// Reset clears the detector for a new run, keeping allocated capacity.
func (d *Detector) Reset() {
	if d.seen == nil {
		d.seen = map[uint64][]detEntry{}
	} else {
		clear(d.seen)
	}
	d.arena = d.arena[:0]
}

// Check records cfg as round's configuration and returns the first round an
// equal configuration was recorded, if any. cfg must be in canonical order
// (two equal global states must encode to identical slices); the detector
// copies it, so callers may reuse the slice.
func (d *Detector) Check(round int, cfg []uint64) (first int, repeated bool) {
	h := hashWords(cfg)
	for _, e := range d.seen[h] {
		if wordsEqual(d.arena[e.off:e.off+e.n], cfg) {
			return e.round, true
		}
	}
	d.seen[h] = append(d.seen[h], detEntry{round: round, off: len(d.arena), n: len(cfg)})
	d.arena = append(d.arena, cfg...)
	return 0, false
}

// hashWords is FNV-1a folded one uint64 word at a time. Word-wise folding
// is weaker than byte-wise but an order of magnitude cheaper, and Check
// verifies every hit, so a collision costs a comparison, never a wrong
// certificate.
func hashWords(cfg []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range cfg {
		h = (h ^ w) * prime64
	}
	return h
}

// wordsEqual compares two packed configurations.
func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
