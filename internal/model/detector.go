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
// word-wise (FNV-1a over the packed words) into a map from each hash to
// the newest entry of its chain, and a hash hit is verified word-for-word
// against the stored configuration before a repeat is reported, so hash
// collisions can never fabricate a certificate. All storage is amortised:
// entries append to one slice, chained by index, and recorded
// configurations to one arena, so once a Detector has recorded as many
// rounds as a run needs, Check allocates nothing and costs the hash and
// the map insert.
//
// A Detector is not safe for concurrent use; Reset recycles it (and its
// capacity) across runs.
type Detector struct {
	head    map[uint64]int // hash → index of its chain's newest entry
	entries []detEntry
	arena   []uint64
}

// detEntry locates one recorded configuration: the round it was seen, its
// window in the arena, and the next older entry with the same hash (-1
// ends the chain).
type detEntry struct {
	round, off, n, next int
}

// Reset clears the detector for a new run, keeping allocated capacity.
func (d *Detector) Reset() {
	if d.head == nil {
		d.head = map[uint64]int{}
	} else {
		clear(d.head)
	}
	d.entries = d.entries[:0]
	d.arena = d.arena[:0]
}

// Check records cfg as round's configuration and returns the first round an
// equal configuration was recorded, if any. cfg must be in canonical order
// (two equal global states must encode to identical slices); the detector
// copies it, so callers may reuse the slice.
func (d *Detector) Check(round int, cfg []uint64) (first int, repeated bool) {
	h := hashWords(cfg)
	next, ok := d.head[h]
	if !ok {
		next = -1
	}
	for i := next; i >= 0; i = d.entries[i].next {
		if e := d.entries[i]; wordsEqual(d.arena[e.off:e.off+e.n], cfg) {
			return e.round, true
		}
	}
	d.head[h] = len(d.entries)
	d.entries = append(d.entries, detEntry{round: round, off: len(d.arena), n: len(cfg), next: next})
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
