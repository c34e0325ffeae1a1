package gen_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

// TestStreamedGNPDistribution sanity-checks the skip sampler: determinism
// per seed, edge count near n(n-1)/2·p, and no out-of-range endpoints
// (FromStream would have errored on those).
func TestStreamedGNPDistribution(t *testing.T) {
	const n, p = 4000, 0.002
	g, err := gen.RandomGNPStream(n, p, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := gen.RandomGNPStream(n, p, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), again.Edges()) {
		t.Fatal("same seed built different graphs")
	}
	expected := float64(n) * float64(n-1) / 2 * p
	if m := float64(g.M()); m < expected/2 || m > expected*2 {
		t.Fatalf("edge count %v wildly off expectation %v", m, expected)
	}
}

// TestStreamedGNPExtremes pins the degenerate probabilities: p=0 builds the
// empty graph and p=1 the complete graph, through the same skip-sampling
// round-trip.
func TestStreamedGNPExtremes(t *testing.T) {
	empty, err := gen.RandomGNPStream(50, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if empty.M() != 0 {
		t.Fatalf("p=0 built %d edges", empty.M())
	}
	full, err := gen.RandomGNPStream(50, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if full.M() != 50*49/2 {
		t.Fatalf("p=1 built %d edges, want %d", full.M(), 50*49/2)
	}
}

// TestStreamedGNPLeavesNoGoroutine: a streamed gnp build draws its skips
// on a goroutine of its own and fills half its transpose on another; both
// have exited by the time gen.Build returns. A goroutine that ends as the
// build returns may still be counted for a moment, so the count is polled;
// a leaked one blocks for good and never leaves it.
func TestStreamedGNPLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := range int64(8) {
		if _, err := gen.Build("gnp:n=16384,p=0.001", seed); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d over 8 builds:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestConnectifyStream: Connectify joins every component of a streamed gnp
// graph as it does a Builder one: the result is connected, supersets the
// input's edges, and adds exactly one bridge per extra component.
func TestConnectifyStream(t *testing.T) {
	g, err := gen.RandomGNPStream(300, 0.002, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	comps := len(algo.Components(g))
	if comps < 2 {
		t.Skipf("instance happened to be connected (%d comps); pick a sparser p", comps)
	}
	cg, err := gen.Connectify(g, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !algo.Connected(cg) {
		t.Fatal("Connectify result not connected")
	}
	if cg.M() != g.M()+comps-1 {
		t.Fatalf("added %d edges for %d components", cg.M()-g.M(), comps)
	}
	for _, e := range g.Edges() {
		if !cg.HasEdge(e.U, e.V) {
			t.Fatalf("edge (%d,%d) lost", e.U, e.V)
		}
	}
	connected := gen.Cycle(12)
	same, err := gen.Connectify(connected, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if same != connected {
		t.Fatal("already-connected graph must be returned unchanged")
	}
}

// TestStreamedPrefAttach checks the streamed sampler keeps the family's
// structural promises: connected, every arriving node has degree >= m, and
// the edge count matches the attachment process exactly.
func TestStreamedPrefAttach(t *testing.T) {
	const n, m = 500, 3
	g, err := gen.PreferentialAttachmentStream(n, m, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if !algo.Connected(g) {
		t.Fatal("preferential attachment must be connected")
	}
	if want := m*(m+1)/2 + (n-m-1)*m; g.M() != want {
		t.Fatalf("edge count %d, want %d", g.M(), want)
	}
	if g.MinDegree() < m {
		t.Fatalf("min degree %d below m=%d", g.MinDegree(), m)
	}
	if _, err := gen.PreferentialAttachmentStream(2, 3, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("n < m+1 must error")
	}
}

// TestRMAT checks seed determinism, the power-of-two gate, and that skew
// parameters actually skew: with a=1 every attempt lands in the top-left
// quadrant, which collapses to node pair (0,0) — a self-loop — so the graph
// is empty.
func TestRMAT(t *testing.T) {
	a, err := gen.RMAT(128, 300, 0.45, 0.22, 0.22, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.RMAT(128, 300, 0.45, 0.22, 0.22, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("same seed built different rmat graphs")
	}
	if a.M() == 0 || a.M() > 300 {
		t.Fatalf("rmat built %d edges from 300 attempts", a.M())
	}
	if _, err := gen.RMAT(100, 10, 0.45, 0.22, 0.22, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("non-power-of-two n must error")
	}
	if _, err := gen.RMAT(64, 10, 0.5, 0.4, 0.3, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("a+b+c > 1 must error")
	}
	diag, err := gen.RMAT(64, 50, 1, 0, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if diag.M() != 0 {
		t.Fatalf("a=1 rmat must collapse to self-loops only, got %d edges", diag.M())
	}
}

// TestEdgeFileFamily is the registry-level counterpart of
// TestEveryFamilyBuilds for the one family that needs a file on disk: a
// graph written with WriteEdgeList and rebuilt through the edgefile spec is
// edge-identical, and the result carries the explicit spec as its name.
func TestEdgeFileFamily(t *testing.T) {
	orig := gen.MustBuild("prefattach:n=40,m=2", 9)
	path := filepath.Join(t.TempDir(), "g.edges")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := "edgefile:path=" + path
	g, err := gen.Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Edges(), g.Edges()) {
		t.Fatal("edgefile round-trip changed the edge set")
	}
	if g.N() != orig.N() {
		t.Fatalf("node count %d, want %d", g.N(), orig.N())
	}
	if g.Name() != spec {
		t.Fatalf("graph named %q, want %q", g.Name(), spec)
	}
}

// csrDigest is the FNV-64a digest of a graph's CSR: every offset as 4
// little-endian bytes, then every target as 8.
func csrDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	csr := g.CSR()
	var buf [8]byte
	for _, off := range csr.Offsets {
		binary.LittleEndian.PutUint32(buf[:4], uint32(off))
		h.Write(buf[:4])
	}
	for _, t := range csr.Targets {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestCase is one pinned build: a spec, built at seed 1, and the edge
// count and csrDigest it must produce.
type digestCase struct {
	spec   string
	m      int
	digest uint64
	long   bool // skipped under -short
}

// checkDigests builds every case at seed 1 and fails on any moved byte.
func checkDigests(t *testing.T, cases []digestCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("large build skipped under -short")
			}
			g, err := gen.Build(c.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m, d := g.M(), csrDigest(g); m != c.m || d != c.digest {
				t.Fatalf("m=%d digest=%#016x, want m=%d digest=%#016x", m, d, c.m, c.digest)
			}
		})
	}
}

// TestStreamedBuildDigests pins the bytes the streamed generators build at
// seed 1: the edge count and a digest of the CSR. TestSeedDeterminism only
// builds each spec twice, which any deterministic sampler passes; this
// test fails when a change to the samplers or to the CSR constructors
// behind them moves a single neighbour of a seeded graph.
func TestStreamedBuildDigests(t *testing.T) {
	checkDigests(t, []digestCase{
		{"gnp:n=16384,p=0.001", 133993, 0x950b894c656e9194, false},
		{"gnp:n=65536,p=0.0009765625", 2098698, 0x051036d90087f863, false},
		{"gnp:n=262144,p=0.000244140625", 8390739, 0x39c0c51782231b8f, true},
		{"gnp:n=10000,p=0.0002,connect=true", 11589, 0x25a23b3d9af95308, false},
		{"prefattach:n=9000,m=2", 17997, 0x7ab5ad66d786f693, false},
		{"rmat:n=256,e=400", 382, 0xcb3b6d8ff756fc48, false},
	})
}

// builderDigests pins the graphs built through the Builder: every
// registered family below the streamed cutoff at a small size, the six
// graphs the serve-small benchmark floods, and the two families whose
// connect=true rebuild joins components.
var builderDigests = []digestCase{
	{"path:n=9", 8, 0x1c46c25c7dedab7d, false},
	{"cycle:n=9", 9, 0x3cfac5acf865c3c7, false},
	{"complete:n=7", 21, 0x6f2f7235fe208bd5, false},
	{"star:n=9", 8, 0xfcff8adf3908f0bd, false},
	{"wheel:n=9", 16, 0xf428e1443aa6cb55, false},
	{"bipartite:a=3,b=5", 15, 0xa51d911a84d33e6f, false},
	{"grid:rows=4,cols=5", 31, 0x417b10e855aff267, false},
	{"torus:rows=3,cols=5", 30, 0x50a4936676fe9d25, false},
	{"hypercube:d=5", 80, 0x1c4016f84d638dd5, false},
	{"petersen", 15, 0xe01956e607ebdf41, false},
	{"barbell:k=4,path=3", 16, 0x7f3a54439911fab1, false},
	{"lollipop:k=5,path=4", 14, 0xb789ac15b02f3145, false},
	{"bintree:levels=5", 30, 0x9b53a78d1159ef55, false},
	{"tree:n=40", 39, 0xde2b1cd93ae24e79, false},
	{"gnp:n=60,p=0.05", 89, 0xeffff5a9cc4b9fb5, false},
	{"gnp:n=60,p=0.02,connect=true", 60, 0x1165bf053d15804f, false},
	{"randbipartite:a=10,b=12,p=0.1", 31, 0x0a41fb1d2ac5bf5b, false},
	{"randconnected:n=40,p=0.05", 80, 0x1ab4bfbb0c50a4b7, false},
	{"randnonbipartite:n=40,p=0.05", 83, 0xd07e2fb5856eaceb, false},
	{"prefattach:n=48,m=2", 93, 0x7eb0f47967fe2a6b, false},
	{"grid:rows=32,cols=32", 1984, 0x1d06b728967484fd, false},
	{"cycle:n=1025", 1025, 0x55049309e0b23aff, false},
	{"hypercube:d=10", 5120, 0x3dc75258cf2b5e9d, false},
	{"gnp:n=2048,p=0.008", 16606, 0x9da97a3f8889d3e2, false},
	{"prefattach:n=2048,m=3", 6138, 0x543b072ea63bd7d3, false},
	{"torus:rows=31,cols=33", 2046, 0xd7a306d3ac767375, false},
	{"gnp:n=2000,p=0.001,connect=true", 2333, 0x9e5a3a072d0b1a8a, false},
	{"randbipartite:a=40,b=56,p=0.05", 193, 0x9a5400b6189231c9, false},
}

// TestBuilderBuildDigests is TestStreamedBuildDigests for the Builder
// path: it fails when a change to a generator, to Builder.Build or to
// Connectify moves a single neighbour of a seeded graph.
func TestBuilderBuildDigests(t *testing.T) {
	checkDigests(t, builderDigests)
}

// TestBuilderDigestsCoverEveryFamily keeps builderDigests in step with the
// registry: every family except the two that exist only streamed (rmat,
// edgefile) has a pinned case.
func TestBuilderDigestsCoverEveryFamily(t *testing.T) {
	pinned := map[string]bool{"rmat": true, "edgefile": true}
	for _, c := range builderDigests {
		pinned[gen.MustParse(c.spec).Family] = true
	}
	for _, name := range gen.Families() {
		if !pinned[name] {
			t.Errorf("family %s has no pinned Builder digest", name)
		}
	}
}
