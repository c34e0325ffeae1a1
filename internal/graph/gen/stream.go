package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"amnesiacflood/internal/graph"
)

// stream.go holds the streamed generators: families whose edge sets are too
// large for the Builder (which holds a sorted edge list beside the CSR it
// lays out) emit their edges straight into a CSR constructor instead, so
// peak memory is the final CSR arena. There are two constructors, chosen by
// the order a sampler emits in:
//
//   - gnp emits each edge once as (u, v), u < v, in row-major order:
//     graph.FromRows lays the CSR out in that single pass, so each
//     geometric skip is drawn once. The draws do not depend on the row
//     walk, so a second goroutine draws them ahead of it into a small ring
//     of chunks (skipAhead), in the order one goroutine would.
//   - prefattach and rmat emit in no row order: graph.FromStream calls
//     their emit closure twice, once to size the rows and once to fill
//     them, and both passes must produce the identical sequence. These
//     generators draw one sub-seed from the caller's rng up front and open
//     a fresh rand.Rand from it inside each pass, making the pass a pure
//     function of (parameters, sub-seed).
//
// gnp runs one pass but still draws its sub-seed up front, so a (spec,
// seed) pair keeps its graph (TestStreamedBuildDigests pins them).
//
// The registry keeps the legacy Builder-based generators for sizes up to
// maxDenseNodes so historical (spec, seed) outputs stay byte-identical, and
// switches to the streamed variants above it; the two samplers draw the rng
// differently, so their outputs are deliberately not comparable across the
// boundary. connect=true runs the one Connectify on either side: it replays
// the sampled graph's rows and its bridges through graph.FromStream.

// maxStreamEdges caps the undirected edge count a streamed spec may request
// (directly for rmat, in expectation for gnp). The CSR hard limit is 2^31-1
// directed edges; this lower cap keeps a hostile spec from allocating tens
// of gigabytes before that limit trips.
const maxStreamEdges = 1 << 26

// RandomGNPStream returns an Erdős–Rényi graph G(n, p) built by geometric
// skip sampling (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005):
// instead of flipping a coin per candidate pair, each row jumps straight to
// its next present edge with a geometrically distributed skip, so work is
// O(n + m) rather than Θ(n²). The sampler visits pairs in row-major order,
// which is graph.FromRows' contract, so each skip is drawn once and the CSR
// is laid out in that one pass. The skips are drawn on a second goroutine
// that runs ahead of the row walk (skipAhead); it consumes the sub-seeded
// rng in the same order as a single goroutine would, so a seed keeps its
// graph, and it has exited when RandomGNPStream returns. The edge
// distribution is exactly G(n, p), but the draw sequence differs from
// RandomGNP, so the two generators produce different graphs for the same
// seed.
func RandomGNPStream(n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	name := fmt.Sprintf("gnp(%d,%.3f)", n, p)
	if p <= 0 {
		return graph.FromRows(name, n, 0, func(func(u, v graph.NodeID)) error { return nil })
	}
	subSeed := rng.Int63()
	logq := math.Log1p(-p) // log(1-p), the geometric tail rate; -Inf for p=1
	// The directed edge count 2m has mean n(n-1)p and standard deviation
	// sqrt(2n(n-1)p(1-p)). A hint four deviations above the mean is rarely
	// overshot, and an overshoot only grows the arena.
	pairs := float64(n) * float64(n-1)
	hint := int(pairs*p + 4*math.Sqrt(2*pairs*p*(1-p)))
	return graph.FromRows(name, n, hint, func(add func(u, v graph.NodeID)) error {
		skips := newSkipAhead(rand.New(rand.NewSource(subSeed)), logq)
		defer skips.stop()
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				// Skip the geometrically distributed run of absent edges.
				skip := skips.next()
				if skip >= float64(n-v) {
					break
				}
				v += int(skip)
				add(graph.NodeID(u), graph.NodeID(v))
			}
		}
		return nil
	})
}

// skipChunks and skipChunk size skipAhead's ring: the drawing goroutine
// runs at most skipChunks×skipChunk skips ahead of the row walk, and
// draws at most that many that the walk never reads.
const skipChunks, skipChunk = 4, 4096

// skipAhead draws gnp's geometric skips, log(1-U)/log(1-p) for the rng's
// successive U, on its own goroutine, so the row walk reads a skip where
// it would otherwise compute one. Chunks circulate between the two
// goroutines: the drawer fills a chunk from free and sends it on full, the
// walk reads it and hands it back on free. full holds every chunk there
// is, so the drawer never blocks on a send.
type skipAhead struct {
	free, full chan []float64
	buf        []float64 // the chunk being read
	i          int       // the next unread skip of buf
}

// newSkipAhead starts the drawer on r, which it alone uses from then on.
// The caller must call stop.
func newSkipAhead(r *rand.Rand, logq float64) *skipAhead {
	s := &skipAhead{free: make(chan []float64, skipChunks), full: make(chan []float64, skipChunks)}
	for range skipChunks {
		s.free <- make([]float64, skipChunk)
	}
	go func() {
		defer close(s.full)
		for buf := range s.free {
			for i := range buf {
				buf[i] = math.Log1p(-r.Float64()) / logq
			}
			s.full <- buf
		}
	}()
	return s
}

// next returns the next skip in draw order.
func (s *skipAhead) next() float64 {
	if s.i == len(s.buf) {
		s.refill()
	}
	x := s.buf[s.i]
	s.i++
	return x
}

// refill hands the spent chunk back to the drawer and waits for the next
// full one.
func (s *skipAhead) refill() {
	if s.buf != nil {
		s.free <- s.buf
	}
	s.buf, s.i = <-s.full, 0
}

// stop takes back the chunks the drawer has not claimed, so it draws no
// more of them, then ends it and returns once it has sent its last chunk:
// no goroutine outlives the build.
func (s *skipAhead) stop() {
reclaim:
	for {
		select {
		case <-s.free:
		default:
			break reclaim
		}
	}
	close(s.free)
	for range s.full {
	}
}

// PreferentialAttachmentStream is PreferentialAttachment built through
// FromStream: the full degree-proportional sampling (endpoint list and all)
// is replayed identically on both passes from a sub-seeded rng, so no edge
// list is ever materialised outside the sampler's own endpoint pool.
func PreferentialAttachmentStream(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("preferential attachment needs n >= m+1 >= 2, got n=%d m=%d", n, m)
	}
	subSeed := rng.Int63()
	name := fmt.Sprintf("prefAttach(%d,%d)", n, m)
	return graph.FromStream(name, n, func(add func(u, v graph.NodeID)) error {
		r := rand.New(rand.NewSource(subSeed))
		for i := 0; i <= m; i++ {
			for j := i + 1; j <= m; j++ {
				add(graph.NodeID(i), graph.NodeID(j))
			}
		}
		endpoints := make([]graph.NodeID, 0, 2*m*(n-m)+m*(m+1))
		for i := 0; i <= m; i++ {
			for j := 0; j <= m; j++ {
				if i != j {
					endpoints = append(endpoints, graph.NodeID(i))
				}
			}
		}
		chosen := make(map[graph.NodeID]bool, m)
		targets := make([]graph.NodeID, 0, m)
		for v := m + 1; v < n; v++ {
			clear(chosen)
			for len(chosen) < m {
				chosen[endpoints[r.Intn(len(endpoints))]] = true
			}
			targets = targets[:0]
			for target := range chosen {
				targets = append(targets, target)
			}
			slices.Sort(targets)
			for _, target := range targets {
				add(graph.NodeID(v), target)
				endpoints = append(endpoints, graph.NodeID(v), target)
			}
		}
		return nil
	})
}

// RMAT returns a recursive-matrix (R-MAT, Chakrabarti–Zhan–Faloutsos) graph:
// e edge attempts each descend log2(n) levels of the adjacency matrix,
// picking the (a, b, c, 1-a-b-c) quadrant at every level. Self-loop attempts
// are dropped and duplicates collapse, so the final edge count is at most e.
// The skew parameters make RMAT the standard generator for power-law graphs
// with community structure. Requires n a power of two.
func RMAT(n, e int, a, b, c float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("rmat needs a power-of-two node count >= 2, got %d", n)
	}
	if a < 0 || b < 0 || c < 0 || a+b+c > 1 {
		return nil, fmt.Errorf("rmat quadrant probabilities need a, b, c >= 0 and a+b+c <= 1, got %.3f %.3f %.3f", a, b, c)
	}
	if e < 0 {
		return nil, fmt.Errorf("rmat edge attempts must be non-negative, got %d", e)
	}
	subSeed := rng.Int63()
	name := fmt.Sprintf("rmat(%d,%d,%.2f,%.2f,%.2f)", n, e, a, b, c)
	return graph.FromStream(name, n, func(add func(u, v graph.NodeID)) error {
		r := rand.New(rand.NewSource(subSeed))
		for i := 0; i < e; i++ {
			var u, v int
			for half := n >> 1; half >= 1; half >>= 1 {
				switch x := r.Float64(); {
				case x < a: // top-left: neither bit set
				case x < a+b:
					v += half
				case x < a+b+c:
					u += half
				default:
					u += half
					v += half
				}
			}
			if u != v {
				add(graph.NodeID(u), graph.NodeID(v))
			}
		}
		return nil
	})
}

// expectedEdges rejects specs whose expected undirected edge count exceeds
// the streaming cap. The check is on the expectation, not the realisation;
// FromStream's own 2^31-1 directed-edge limit backstops pathological draws.
func expectedEdges(family string, expected float64) error {
	if expected > maxStreamEdges {
		return fmt.Errorf("%s spec expects ~%.0f edges, above the %d cap", family, expected, maxStreamEdges)
	}
	return nil
}
