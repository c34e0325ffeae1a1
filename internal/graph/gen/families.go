package gen

import (
	"fmt"
	"math/rand"
	"os"

	"amnesiacflood/internal/graph"
)

// families.go registers every generator of this package so each family is a
// parseable, enumerable spec (see registry.go for the grammar). Build
// functions validate ranges and return errors where the underlying
// constructors would panic, so Parse+New never panic on user input.
//
// Size caps keep hostile specs from allocating the machine away: sparse
// families accept up to maxSparseNodes nodes, families with Θ(n²)
// edges or work up to maxDenseNodes.
const (
	maxSparseNodes = 1 << 24
	maxDenseNodes  = 1 << 13
)

// intRange validates lo <= v <= hi for parameter name.
func intRange(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("parameter %s must be in [%d, %d], got %d", name, lo, hi, v)
	}
	return nil
}

// probability validates 0 <= p <= 1.
func probability(name string, p float64) error {
	if p < 0 || p > 1 || p != p {
		return fmt.Errorf("parameter %s must be a probability in [0, 1], got %v", name, p)
	}
	return nil
}

func init() {
	Register("path", Family{
		Doc:    "path graph P_n (bipartite, diameter n-1)",
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 1, maxSparseNodes); err != nil {
				return nil, err
			}
			return Path(n), nil
		},
	})
	Register("cycle", Family{
		Doc:    "cycle C_n (bipartite iff n even)",
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes (>= 3)"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 3, maxSparseNodes); err != nil {
				return nil, err
			}
			return Cycle(n), nil
		},
	})
	Register("complete", Family{
		Doc:    "complete graph K_n (non-bipartite for n >= 3)",
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			return Complete(n), nil
		},
	})
	Register("star", Family{
		Doc:    "star K_{1,n-1}: hub node 0 joined to all others",
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 1, maxSparseNodes); err != nil {
				return nil, err
			}
			return Star(n), nil
		},
	})
	Register("wheel", Family{
		Doc:    "wheel W_n: hub plus rim cycle (non-bipartite)",
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes (>= 4)"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 4, maxSparseNodes); err != nil {
				return nil, err
			}
			return Wheel(n), nil
		},
	})
	Register("bipartite", Family{
		Doc: "complete bipartite K_{a,b}",
		Params: []Param{
			{Name: "a", Kind: IntParam, Default: "4", Doc: "left part size"},
			{Name: "b", Kind: IntParam, Default: "4", Doc: "right part size"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			a, b := v.Int("a"), v.Int("b")
			if err := intRange("a", a, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := intRange("b", b, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			return CompleteBipartite(a, b), nil
		},
	})
	Register("grid", Family{
		Doc: "rows x cols grid (bipartite, diameter rows+cols-2)",
		Params: []Param{
			{Name: "rows", Kind: IntParam, Default: "8", Doc: "grid rows"},
			{Name: "cols", Kind: IntParam, Default: "8", Doc: "grid columns"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			rows, cols := v.Int("rows"), v.Int("cols")
			if err := gridDims(rows, cols, 1); err != nil {
				return nil, err
			}
			return Grid(rows, cols), nil
		},
	})
	Register("torus", Family{
		Doc: "rows x cols torus (bipartite iff both dimensions even)",
		Params: []Param{
			{Name: "rows", Kind: IntParam, Default: "4", Doc: "torus rows (>= 3)"},
			{Name: "cols", Kind: IntParam, Default: "4", Doc: "torus columns (>= 3)"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			rows, cols := v.Int("rows"), v.Int("cols")
			if err := gridDims(rows, cols, 3); err != nil {
				return nil, err
			}
			return Torus(rows, cols), nil
		},
	})
	Register("hypercube", Family{
		Doc:    "d-dimensional hypercube Q_d over 2^d nodes (bipartite)",
		Params: []Param{{Name: "d", Kind: IntParam, Default: "4", Doc: "dimension (0..20)"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			d := v.Int("d")
			if err := intRange("d", d, 0, 20); err != nil {
				return nil, err
			}
			return Hypercube(d), nil
		},
	})
	Register("petersen", Family{
		Doc: "the Petersen graph (10 nodes, girth 5, non-bipartite)",
		Build: func(Values, *rand.Rand) (*graph.Graph, error) {
			return Petersen(), nil
		},
	})
	Register("barbell", Family{
		Doc: "two K_k cliques joined by a path of extra nodes",
		Params: []Param{
			{Name: "k", Kind: IntParam, Default: "4", Doc: "clique size"},
			{Name: "path", Kind: IntParam, Default: "4", Doc: "bridge path length (>= 0)"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			k, pathLen := v.Int("k"), v.Int("path")
			if err := intRange("k", k, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := intRange("path", pathLen, 0, maxSparseNodes); err != nil {
				return nil, err
			}
			return Barbell(k, pathLen), nil
		},
	})
	Register("lollipop", Family{
		Doc: "clique K_k with a path of extra nodes attached",
		Params: []Param{
			{Name: "k", Kind: IntParam, Default: "4", Doc: "clique size"},
			{Name: "path", Kind: IntParam, Default: "4", Doc: "tail path length (>= 0)"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			k, pathLen := v.Int("k"), v.Int("path")
			if err := intRange("k", k, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := intRange("path", pathLen, 0, maxSparseNodes); err != nil {
				return nil, err
			}
			return Lollipop(k, pathLen), nil
		},
	})
	Register("bintree", Family{
		Doc:    "complete binary tree with the given number of levels",
		Params: []Param{{Name: "levels", Kind: IntParam, Default: "4", Doc: "tree levels (1..22)"}},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			levels := v.Int("levels")
			if err := intRange("levels", levels, 1, 22); err != nil {
				return nil, err
			}
			return CompleteBinaryTree(levels), nil
		},
	})
	Register("tree", Family{
		Doc:    "uniform random attachment tree (seeded, bipartite, connected)",
		Random: true,
		Params: []Param{{Name: "n", Kind: IntParam, Default: "8", Doc: "number of nodes"}},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if err := intRange("n", n, 1, maxSparseNodes); err != nil {
				return nil, err
			}
			return RandomTree(n, rng), nil
		},
	})
	Register("gnp", Family{
		Doc:    "Erdős–Rényi G(n,p) (seeded; connect=true joins components; streamed above 2^13 nodes)",
		Random: true,
		Params: []Param{
			{Name: "n", Kind: IntParam, Default: "16", Doc: "number of nodes"},
			{Name: "p", Kind: FloatParam, Default: "0.25", Doc: "edge probability"},
			{Name: "connect", Kind: BoolParam, Default: "false", Doc: "join components with extra edges"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n, p := v.Int("n"), v.Float("p")
			if err := intRange("n", n, 1, maxSparseNodes); err != nil {
				return nil, err
			}
			if err := probability("p", p); err != nil {
				return nil, err
			}
			// The coin-per-pair sampler is kept for small n so historical
			// (spec, seed) outputs stay byte-identical; larger instances
			// draw geometric skips. Both lay their CSR out through
			// graph.FromRows (RandomGNP by way of the Builder), and one
			// Connectify joins components at every size.
			var g *graph.Graph
			var err error
			if n <= maxDenseNodes {
				g = RandomGNP(n, p, rng)
			} else if err = expectedEdges("gnp", float64(n)*float64(n-1)/2*p); err == nil {
				g, err = RandomGNPStream(n, p, rng)
			}
			if err != nil || !v.Bool("connect") {
				return g, err
			}
			return Connectify(g, rng)
		},
	})
	Register("randbipartite", Family{
		Doc:    "random bipartite graph with min degree 1 (seeded)",
		Random: true,
		Params: []Param{
			{Name: "a", Kind: IntParam, Default: "8", Doc: "left part size"},
			{Name: "b", Kind: IntParam, Default: "8", Doc: "right part size"},
			{Name: "p", Kind: FloatParam, Default: "0.25", Doc: "cross-edge probability"},
			{Name: "connect", Kind: BoolParam, Default: "true", Doc: "join components with extra edges"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			a, b, p := v.Int("a"), v.Int("b"), v.Float("p")
			if err := intRange("a", a, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := intRange("b", b, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := probability("p", p); err != nil {
				return nil, err
			}
			g := RandomBipartite(a, b, p, rng)
			if !v.Bool("connect") {
				return g, nil
			}
			return Connectify(g, rng)
		},
	})
	Register("randconnected", Family{
		Doc:    "random tree backbone plus G(n,p) edges (seeded, connected)",
		Random: true,
		Params: []Param{
			{Name: "n", Kind: IntParam, Default: "16", Doc: "number of nodes"},
			{Name: "p", Kind: FloatParam, Default: "0.1", Doc: "extra-edge probability"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n, p := v.Int("n"), v.Float("p")
			if err := intRange("n", n, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := probability("p", p); err != nil {
				return nil, err
			}
			return RandomConnected(n, p, rng), nil
		},
	})
	Register("randnonbipartite", Family{
		Doc:    "connected random graph with a grafted triangle (seeded, non-bipartite)",
		Random: true,
		Params: []Param{
			{Name: "n", Kind: IntParam, Default: "16", Doc: "number of nodes (>= 3)"},
			{Name: "p", Kind: FloatParam, Default: "0.1", Doc: "extra-edge probability"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n, p := v.Int("n"), v.Float("p")
			if err := intRange("n", n, 3, maxDenseNodes); err != nil {
				return nil, err
			}
			if err := probability("p", p); err != nil {
				return nil, err
			}
			return RandomNonBipartite(n, p, rng), nil
		},
	})
	Register("prefattach", Family{
		Doc:    "Barabási–Albert preferential attachment (seeded, connected)",
		Random: true,
		Params: []Param{
			{Name: "n", Kind: IntParam, Default: "16", Doc: "number of nodes (>= m+1)"},
			{Name: "m", Kind: IntParam, Default: "2", Doc: "edges per arriving node (>= 1)"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n, m := v.Int("n"), v.Int("m")
			if err := intRange("m", m, 1, maxDenseNodes); err != nil {
				return nil, err
			}
			if n < m+1 || n > maxSparseNodes {
				return nil, fmt.Errorf("parameter n must be in [m+1, %d], got %d (m=%d)", maxSparseNodes, n, m)
			}
			if n > maxSparseNodes/m {
				return nil, fmt.Errorf("prefattach of n=%d,m=%d exceeds %d edges", n, m, maxSparseNodes)
			}
			// Same historical-output boundary as gnp: Builder below, FromStream
			// above (identical sampling, different rng consumption).
			if n <= maxDenseNodes {
				return PreferentialAttachment(n, m, rng), nil
			}
			return PreferentialAttachmentStream(n, m, rng)
		},
	})
	Register("rmat", Family{
		Doc:    "R-MAT recursive-matrix graph: e skewed edge attempts over a power-of-two node count (seeded, streamed)",
		Random: true,
		Params: []Param{
			{Name: "n", Kind: IntParam, Default: "16", Doc: "number of nodes (power of two)"},
			{Name: "e", Kind: IntParam, Default: "32", Doc: "edge attempts (self-loops and duplicates collapse)"},
			{Name: "a", Kind: FloatParam, Default: "0.45", Doc: "top-left quadrant probability"},
			{Name: "b", Kind: FloatParam, Default: "0.22", Doc: "top-right quadrant probability"},
			{Name: "c", Kind: FloatParam, Default: "0.22", Doc: "bottom-left quadrant probability"},
		},
		Build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
			n, e := v.Int("n"), v.Int("e")
			a, b, c := v.Float("a"), v.Float("b"), v.Float("c")
			if err := intRange("n", n, 2, maxSparseNodes); err != nil {
				return nil, err
			}
			if err := intRange("e", e, 1, maxStreamEdges); err != nil {
				return nil, err
			}
			return RMAT(n, e, a, b, c, rng)
		},
	})
	Register("edgefile", Family{
		Doc:   "graph loaded from a text edge-list file (WriteEdgeList format), streamed into CSR",
		Local: true,
		Params: []Param{
			{Name: "path", Kind: StringParam, Default: "graph.edges", Doc: "path to the edge-list file"},
		},
		Build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
			f, err := os.Open(v.String("path"))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadEdgeList(f)
		},
	})
}

// gridDims validates grid/torus dimensions including the product cap.
func gridDims(rows, cols, lo int) error {
	if err := intRange("rows", rows, lo, maxSparseNodes); err != nil {
		return err
	}
	if err := intRange("cols", cols, lo, maxSparseNodes); err != nil {
		return err
	}
	if rows > maxSparseNodes/cols {
		return fmt.Errorf("grid of %dx%d exceeds %d nodes", rows, cols, maxSparseNodes)
	}
	return nil
}
