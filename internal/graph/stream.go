package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrStreamMismatch is returned by FromStream when the two replays of the
// edge stream emit different numbers of edges. Streamed generators must be
// deterministic: both passes have to produce the same sequence.
var ErrStreamMismatch = errors.New("edge stream emitted a different edge count on replay")

// ErrRowOrder is returned by FromRows when the stream breaks forward-row
// order: an edge (u, v) with v < u, a row after a later one, or a v not
// above the previous v of its row (which includes a repeated edge).
var ErrRowOrder = errors.New("edge stream is not in forward-row order")

// FromStream builds a named graph over n nodes from a replayable edge
// stream, without ever materialising an []Edge list. The emit callback is
// invoked exactly twice with an add(u, v) sink and must produce the same
// deterministic edge sequence both times: the first pass sizes the CSR rows,
// the second fills them in place. Duplicate edges are collapsed; self-loops
// and out-of-range endpoints are sticky errors, as with Builder.
//
// This is the construction path for graph families too large for the
// Builder, which holds a sorted edge list beside the arena it lays out:
// peak memory here is the final CSR arena plus per-node offsets, so
// million-node graphs build in a few hundred MB.
func FromStream(name string, n int, emit func(add func(u, v NodeID)) error) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("stream: %w: %d", ErrNoNodes, n)
	}

	// Pass 1: count each node's (pre-dedup) degree.
	var sticky error
	degree := make([]int32, n+1) // shifted by one so it doubles as offsets
	var directed uint64
	count := func(u, v NodeID) {
		if sticky != nil {
			return
		}
		if u == v {
			sticky = fmt.Errorf("stream: edge (%d,%d): %w", u, v, ErrSelfLoop)
			return
		}
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			sticky = fmt.Errorf("stream: edge (%d,%d) with n=%d: %w", u, v, n, ErrNodeOutOfRange)
			return
		}
		degree[u+1]++
		degree[v+1]++
		directed += 2
	}
	if err := emit(count); err != nil {
		return nil, err
	}
	if sticky != nil {
		return nil, sticky
	}
	if directed > math.MaxInt32 {
		return nil, fmt.Errorf("stream: %d edges: %w", directed/2, ErrTooManyEdges)
	}

	// Prefix-sum the shifted degrees into row offsets.
	offsets := degree
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}

	// Pass 2: replay the stream, scattering endpoints into the arena. The
	// contract says both passes emit the same sequence, but a buggy emit can
	// diverge in ways count comparison alone misses — so the fill revalidates
	// endpoints and row capacity (sticky error, like pass 1) instead of
	// letting a contract violation panic on an out-of-range index.
	targets := make([]NodeID, directed)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	var replayed uint64
	fill := func(u, v NodeID) {
		if sticky != nil {
			return
		}
		if u == v || u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			sticky = fmt.Errorf("stream: replay emitted edge (%d,%d) with n=%d, absent from pass 1: %w",
				u, v, n, ErrStreamMismatch)
			return
		}
		if replayed+2 > directed {
			replayed += 2 // overflow detected after the loop
			return
		}
		if cursor[u] >= offsets[u+1] || cursor[v] >= offsets[v+1] {
			sticky = fmt.Errorf("stream: replay overfilled the row of edge (%d,%d): %w",
				u, v, ErrStreamMismatch)
			return
		}
		targets[cursor[u]] = v
		targets[cursor[v]] = u
		cursor[u]++
		cursor[v]++
		replayed += 2
	}
	if err := emit(fill); err != nil {
		return nil, err
	}
	if sticky != nil {
		return nil, sticky
	}
	if replayed != directed {
		return nil, fmt.Errorf("stream: pass 1 saw %d directed edges, pass 2 saw %d: %w",
			directed, replayed, ErrStreamMismatch)
	}

	// Sort each row and compact duplicates in place. The write cursor never
	// overtakes the read cursor, so the dedup reuses the same arena.
	write := int32(0)
	for v := 0; v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		start := write
		for i, t := range row {
			if i > 0 && t == row[i-1] {
				continue
			}
			targets[write] = t
			write++
		}
		offsets[v] = start // reuse as the *new* start of row v
	}
	// offsets[v] now holds the deduped start of row v for every v < n (row 0
	// starts at 0), so closing the final slot restores canonical CSR form.
	offsets[n] = write
	return &Graph{name: name, csr: CSR{Offsets: offsets, Targets: targets[:write:write]}}, nil
}

// FromRows builds a named graph over n nodes from a single pass over a
// forward-row edge stream: emit calls add(u, v) once per undirected edge,
// with u < v, rows in ascending u, and the v of one row strictly
// ascending. Row-major samplers such as gnp's geometric skip produce
// exactly this order, and for them FromRows replaces FromStream's replay,
// count pass and per-row sort.
//
// The order is what makes one pass enough. When the stream reaches row u,
// every backward neighbour w < u of u has already been emitted (as the
// edge (w, u) of row w), so u's row can be laid out at once: a gap for its
// counted backward neighbours, then its forward neighbours appended in
// place. A transpose over the forward parts then fills the gaps in
// ascending order, so each row comes out sorted and duplicate-free.
//
// The transpose runs in two halves, split by destination row at the row
// where the running backward count reaches half the edges: the lower half
// on a goroutine of its own, which has finished when FromRows returns, and
// the upper half on the calling goroutine. Each half writes only the gaps
// of its own rows, through its own entries of a fill cursor copied from
// the offsets, and reads only forward parts, which neither half writes.
//
// hint is the expected directed edge count (2m); the arena is reserved at
// that size and grows by append when the stream overshoots it. An edge
// out of row order (a swapped pair, a repeat, a row revisited) is the
// sticky error ErrRowOrder; self-loops and out-of-range endpoints are
// ErrSelfLoop and ErrNodeOutOfRange, as with Builder.
func FromRows(name string, n, hint int, emit func(add func(u, v NodeID)) error) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("rows: %w: %d", ErrNoNodes, n)
	}
	offsets := make([]int32, n+1)
	targets := make([]NodeID, 0, min(max(hint, 0), math.MaxInt32))
	// back[v] counts v's backward neighbours, so row v's forward part
	// starts back[v] slots after its offset. It stays a count to the end:
	// the transpose fills through a cursor array of its own, so either
	// half can find any row's forward part. back is allocated after the
	// arena, so the collection the arena's allocation starts does not find
	// it live (a peak-heap sample taken there stays the arena plus offsets).
	back := make([]int32, n)

	// open lays out rows up to and including u: each row starts at the
	// arena's end with a gap for its backward neighbours.
	cur := NodeID(-1) // the open row
	open := func(u NodeID) {
		for r := cur + 1; r <= u; r++ {
			start := len(targets)
			offsets[r] = int32(start)
			targets = slices.Grow(targets, int(back[r]))[:start+int(back[r])]
		}
		cur = u
	}

	var sticky error
	var edges uint64
	// last is the previous v of the open row. It starts (and, once sticky,
	// stays) at math.MaxInt, so that every such add takes the checked path.
	last := NodeID(math.MaxInt)
	nn := NodeID(n)
	add := func(u, v NodeID) {
		if u != cur || v <= last || v >= nn {
			if sticky != nil {
				return
			}
			switch {
			case u == v:
				sticky = fmt.Errorf("rows: edge (%d,%d): %w", u, v, ErrSelfLoop)
			case u < 0 || u >= nn || v < 0 || v >= nn:
				sticky = fmt.Errorf("rows: edge (%d,%d) with n=%d: %w", u, v, n, ErrNodeOutOfRange)
			case u < cur || v < u || (u == cur && v <= last):
				sticky = fmt.Errorf("rows: edge (%d,%d) after row %d's edge to %d: %w", u, v, cur, last, ErrRowOrder)
			}
			if sticky != nil {
				last = math.MaxInt
				return
			}
			open(u)
		}
		if edges++; 2*edges > math.MaxInt32 {
			sticky = fmt.Errorf("rows: %d edges: %w", edges, ErrTooManyEdges)
			last = math.MaxInt
			return
		}
		targets = append(targets, v)
		back[v]++
		last = v
	}
	if err := emit(add); err != nil {
		return nil, err
	}
	if sticky != nil {
		return nil, sticky
	}
	open(nn - 1)
	offsets[n] = int32(len(targets))

	// Every edge is one backward entry, of its larger endpoint; split is
	// the first row such that the rows below it hold at least half of them.
	split, below := 0, uint64(0)
	for ; split < n && 2*below < edges; split++ {
		below += uint64(back[split])
	}
	pos := make([]int32, n)
	copy(pos, offsets[:n])
	done := make(chan struct{})
	go func() {
		defer close(done)
		transposeHalf(offsets, back, pos, targets, 0, NodeID(split))
	}()
	transposeHalf(offsets, back, pos, targets, NodeID(split), nn)
	<-done
	return &Graph{name: name, csr: CSR{Offsets: offsets, Targets: targets[:len(targets):len(targets)]}}, nil
}

// transposeHalf fills the backward gaps of rows [lo, hi): it walks every
// row's forward part in ascending row order from the first entry at or
// above lo, and writes the row into the gap of each neighbour below hi.
// Ascending rows fill each gap in ascending order. A row u has forward
// neighbours above u only, so only rows below lo-1 search their sorted
// forward part for that first entry, and only rows below hi-1 are walked.
func transposeHalf(offsets, back, pos []int32, targets []NodeID, lo, hi NodeID) {
	for u := NodeID(0); u < hi-1; u++ {
		fwd := targets[offsets[u]+back[u] : offsets[u+1]]
		if u < lo-1 {
			cut, _ := slices.BinarySearch(fwd, lo)
			fwd = fwd[cut:]
		}
		for _, v := range fwd {
			if v >= hi {
				break
			}
			targets[pos[v]] = u
			pos[v]++
		}
	}
}
