package gen_test

import (
	"errors"
	"reflect"
	"testing"

	"amnesiacflood/internal/graph/algo"
	"amnesiacflood/internal/graph/gen"
)

func TestFamiliesSortedAndComplete(t *testing.T) {
	names := gen.Families()
	if len(names) < 16 {
		t.Fatalf("only %d families registered: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("families not sorted: %v", names)
		}
	}
	// Every generator exported by the package must be reachable by spec.
	for _, want := range []string{
		"path", "cycle", "complete", "star", "wheel", "bipartite", "grid",
		"torus", "hypercube", "petersen", "barbell", "lollipop", "bintree",
		"tree", "gnp", "randbipartite", "randconnected", "randnonbipartite",
		"prefattach", "rmat", "edgefile",
	} {
		if _, ok := gen.Lookup(want); !ok {
			t.Errorf("family %q not registered", want)
		}
	}
}

// TestLocalFamilies pins down which families are marked Local — the flag
// remote-facing services key their rejection on. edgefile opens
// caller-named server paths, so forgetting the flag (or a new
// filesystem-reading family shipping without it) must fail here.
func TestLocalFamilies(t *testing.T) {
	for _, name := range gen.Families() {
		fam, ok := gen.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if want := name == "edgefile"; fam.Local != want {
			t.Errorf("family %q Local = %v, want %v", name, fam.Local, want)
		}
	}
}

// TestCanonicalRoundTrip is the acceptance criterion: for every registered
// family, Parse(s).String() == s holds both for the bare family name and
// for the fully explicit canonical spec.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, name := range gen.Families() {
		bare, err := gen.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if got := bare.String(); got != name {
			t.Errorf("Parse(%q).String() = %q", name, got)
		}
		canon, err := gen.Canonical(name)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", name, err)
		}
		s := canon.String()
		back, err := gen.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := back.String(); got != s {
			t.Errorf("family %s: Parse(%q).String() = %q", name, s, got)
		}
		if !reflect.DeepEqual(back, canon) {
			t.Errorf("family %s: Parse(String()) spec mismatch: %#v vs %#v", name, back, canon)
		}
	}
}

func TestParseNormalisesOrderAndCase(t *testing.T) {
	spec, err := gen.Parse(" GRID : cols=5 , ROWS=4 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != "grid:rows=4,cols=5" {
		t.Fatalf("canonical form = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"   ",                // blank
		"nosuchfamily",       // unknown family
		"grid:",              // empty parameter list
		"grid:rows",          // missing value
		"grid:rows=",         // empty value
		"grid:=4",            // empty key
		"grid:depth=4",       // undeclared parameter
		"grid:rows=4,rows=5", // duplicate key
		"grid:rows=four",     // non-integer value
		"gnp:p=high",         // non-float value
		"gnp:connect=maybe",  // non-bool value
	}
	for _, s := range cases {
		if _, err := gen.Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	if _, err := gen.Parse("nosuch"); !errors.Is(err, gen.ErrUnknownFamily) {
		t.Errorf("unknown family error not matchable: %v", err)
	}
}

// TestEveryFamilyBuilds builds every family at its canonical defaults and
// checks the graph is non-empty and named by its fully explicit spec.
func TestEveryFamilyBuilds(t *testing.T) {
	for _, name := range gen.Families() {
		if name == "edgefile" {
			continue // needs a file on disk; exercised by TestEdgeFileFamily
		}
		g, err := gen.Build(name, 1)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("family %s built an empty graph", name)
		}
		canon, _ := gen.Canonical(name)
		if g.Name() != canon.String() {
			t.Errorf("family %s: graph named %q, want canonical %q", name, g.Name(), canon.String())
		}
	}
}

func TestNewErrors(t *testing.T) {
	badValues := []string{
		"cycle:n=2",                          // below range
		"wheel:n=3",                          // below range
		"hypercube:d=21",                     // above range
		"bintree:levels=0",                   // below range
		"gnp:p=1.5",                          // not a probability
		"randnonbipartite:n=2",               // needs a triangle
		"prefattach:n=2,m=3",                 // n < m+1
		"grid:rows=100000000,cols=100000000", // node-count cap
		"rmat:n=63,e=10",                     // not a power of two
		"rmat:n=64,e=10,a=0.9,b=0.2",         // a+b+c > 1
		"rmat:n=64,e=10,a=-0.1",              // negative quadrant probability
		"gnp:n=1000000,p=0.5",                // expected edges above stream cap
		"edgefile:path=/nonexistent.edges",   // unreadable file
	}
	for _, s := range badValues {
		if _, err := gen.Build(s, 1); err == nil {
			t.Errorf("Build(%q) succeeded, want error", s)
		}
	}
	// Hand-built specs with undeclared parameters are rejected at New.
	if _, err := gen.New(gen.Spec{Family: "path", Params: map[string]string{"zz": "1"}}, 1); err == nil {
		t.Error("undeclared parameter accepted by New")
	}
	if _, err := gen.New(gen.Spec{Family: "nosuch"}, 1); !errors.Is(err, gen.ErrUnknownFamily) {
		t.Error("unknown family accepted by New")
	}
}

// randomSpecs are the seeded families with sizes large enough that distinct
// seeds almost surely build distinct graphs.
var randomSpecs = []string{
	"tree:n=64",
	"gnp:n=48,p=0.15",
	"gnp:n=48,p=0.1,connect=true",
	"gnp:n=16384,p=0.001",   // streamed skip-sampling path
	"prefattach:n=9000,m=2", // streamed replayed-sampler path
	"rmat:n=256,e=400",
	"randbipartite:a=24,b=24,p=0.1",
	"randconnected:n=48,p=0.05",
	"randnonbipartite:n=48,p=0.05",
	"prefattach:n=48,m=2",
}

// TestSeedDeterminism: every random generator produces byte-identical edge
// sets for equal seeds across two independent constructions, and distinct
// graphs for distinct seeds.
func TestSeedDeterminism(t *testing.T) {
	for _, spec := range randomSpecs {
		t.Run(spec, func(t *testing.T) {
			a := gen.MustBuild(spec, 7)
			b := gen.MustBuild(spec, 7)
			if !reflect.DeepEqual(a.Edges(), b.Edges()) {
				t.Fatalf("same seed built different edge sets (%d vs %d edges)", a.M(), b.M())
			}
			c := gen.MustBuild(spec, 8)
			if reflect.DeepEqual(a.Edges(), c.Edges()) {
				t.Fatalf("seeds 7 and 8 built identical graphs (%d edges)", a.M())
			}
		})
	}
	// Deterministic families ignore the seed entirely.
	a, b := gen.MustBuild("grid:rows=4,cols=5", 1), gen.MustBuild("grid:rows=4,cols=5", 99)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("deterministic family varied with the seed")
	}
}

// TestDeclaredStructureHolds spot-checks that spec-built graphs keep the
// structural promises their families advertise.
func TestDeclaredStructureHolds(t *testing.T) {
	bipartite := []string{"path:n=9", "cycle:n=10", "star:n=7", "grid:rows=3,cols=4",
		"hypercube:d=5", "bipartite:a=3,b=5", "bintree:levels=4", "tree:n=40",
		"randbipartite:a=10,b=12,p=0.2"}
	for _, s := range bipartite {
		if g := gen.MustBuild(s, 3); !algo.IsBipartite(g) {
			t.Errorf("%s is not bipartite", s)
		}
	}
	nonBipartite := []string{"cycle:n=9", "complete:n=5", "wheel:n=8", "petersen",
		"randnonbipartite:n=30,p=0.05", "prefattach:n=30,m=2"}
	for _, s := range nonBipartite {
		if g := gen.MustBuild(s, 3); algo.IsBipartite(g) {
			t.Errorf("%s is bipartite", s)
		}
	}
	connected := []string{"randconnected:n=40,p=0.02", "gnp:n=40,p=0.02,connect=true",
		"randbipartite:a=20,b=20,p=0.03", "tree:n=50", "prefattach:n=40,m=1",
		"gnp:n=10000,p=0.0002,connect=true", // streamed sampler + Connectify
		"prefattach:n=9000,m=1"}             // streamed preferential attachment
	for _, s := range connected {
		if g := gen.MustBuild(s, 5); !algo.Connected(g) {
			t.Errorf("%s is not connected", s)
		}
	}
}

func TestMustBuildPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on a bad spec did not panic")
		}
	}()
	gen.MustBuild("cycle:n=1", 1)
}
