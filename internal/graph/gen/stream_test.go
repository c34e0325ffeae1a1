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

// TestConnectifyStream joins every component exactly like Connectify: the
// result is connected, supersets the input's edges, and adds exactly one
// bridge per extra component.
func TestConnectifyStream(t *testing.T) {
	g, err := gen.RandomGNPStream(300, 0.002, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	comps := len(algo.Components(g))
	if comps < 2 {
		t.Skipf("instance happened to be connected (%d comps); pick a sparser p", comps)
	}
	cg, err := gen.ConnectifyStream(g, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !algo.Connected(cg) {
		t.Fatal("ConnectifyStream result not connected")
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
	same, err := gen.ConnectifyStream(connected, rand.New(rand.NewSource(5)))
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

// TestStreamedBuildDigests pins the bytes the streamed generators build at
// seed 1: the edge count and a digest of the CSR. TestSeedDeterminism only
// builds each spec twice, which any deterministic sampler passes; this
// test fails when a change to the samplers or to the CSR constructors
// behind them moves a single neighbour of a seeded graph.
func TestStreamedBuildDigests(t *testing.T) {
	cases := []struct {
		spec   string
		m      int
		digest uint64
		long   bool
	}{
		{"gnp:n=16384,p=0.001", 133993, 0x950b894c656e9194, false},
		{"gnp:n=65536,p=0.0009765625", 2098698, 0x051036d90087f863, false},
		{"gnp:n=262144,p=0.000244140625", 8390739, 0x39c0c51782231b8f, true},
		{"gnp:n=10000,p=0.0002,connect=true", 11589, 0x25a23b3d9af95308, false},
		{"prefattach:n=9000,m=2", 17997, 0x7ab5ad66d786f693, false},
		{"rmat:n=256,e=400", 382, 0xcb3b6d8ff756fc48, false},
	}
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
