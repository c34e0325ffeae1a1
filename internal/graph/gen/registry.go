package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/specgrammar"
)

// This file is the graph axis of the spec registry (internal/specgrammar):
// every graph family in this package registers in Families under a name,
// and a one-line spec string selects a family and binds its parameters:
//
//	family[:key=value[,key=value]...]
//
// Examples: "petersen", "path:n=64", "grid:rows=64,cols=64",
// "gnp:n=200,p=0.05,connect=true". Family and key names are
// case-insensitive; values must not contain ',' or '=', but may hold inner
// whitespace (an edgefile path may). Omitted parameters take the family's
// declared defaults. Random families consume the seed passed to New, so
// equal (spec, seed) pairs build byte-identical graphs. Parse(s).String()
// == s for every canonically ordered s.

// Parameter kinds.
const (
	// IntParam values parse with strconv.Atoi.
	IntParam = specgrammar.IntParam
	// FloatParam values parse with strconv.ParseFloat (probabilities).
	FloatParam = specgrammar.FloatParam
	// BoolParam values parse with strconv.ParseBool.
	BoolParam = specgrammar.BoolParam
	// StringParam values are free-form except for spec metacharacters.
	StringParam = specgrammar.StringParam
)

// Param declares one parameter of a family: its name, type, default value
// (a canonical literal of the declared kind), and a one-line doc string for
// -list output.
type Param = specgrammar.Param

// Values holds the resolved, type-checked parameters handed to a family's
// Build function. Accessors are keyed by declared parameter name; asking
// for an undeclared parameter is a programmer error and panics.
type Values = specgrammar.Values

// Family describes one registered graph family: its parameter declarations
// (order defines the canonical spec order), whether it consumes the seed,
// and the constructor.
type Family struct {
	// Params declares the accepted parameters in canonical order.
	Params specgrammar.Params
	// Random marks families that consume the seed passed to New;
	// deterministic families receive a nil rng.
	Random bool
	// Local marks families whose Build reads local host resources (files,
	// paths) named by the spec. Such specs are only safe from operators who
	// already have shell access to the machine; services resolving specs on
	// behalf of remote callers must reject Local families, or an attacker
	// could probe or ingest arbitrary server paths.
	Local bool
	// Doc is a one-line description for listings.
	Doc string
	// Build constructs the graph from resolved values. It must validate
	// ranges and return an error (never panic) on unusable parameters,
	// and must be a pure function of (v, rng) so runs are reproducible.
	Build func(v Values, rng *rand.Rand) (*graph.Graph, error)
}

// Decl implements specgrammar.Family.
func (f Family) Decl() specgrammar.Decl {
	return specgrammar.Decl{Params: f.Params, Doc: f.Doc, Random: f.Random, Ready: f.Build != nil}
}

// ErrUnknownFamily is wrapped into errors for family names outside the
// registry, matchable with errors.Is.
var ErrUnknownFamily = fmt.Errorf("unknown graph family")

// Families is the graph family registry. Register families from an init.
var Families = specgrammar.NewRegistry[Family](specgrammar.Axis{
	Prefix: "gen", Noun: "graph", Unknown: ErrUnknownFamily, Spaces: true,
})

// Spec is a parsed graph specification: a family name plus explicit
// parameter assignments. The zero value is invalid; build Specs with Parse
// or Canonical.
type Spec specgrammar.Spec

// String renders the canonical spec string: the family name, then any
// explicit parameters in the family's declared order.
func (s Spec) String() string { return Families.Format(specgrammar.Spec(s)) }

// Parse parses a graph spec string against the registry (see the grammar at
// the top of this file). It never panics and never builds a graph; use New
// for that.
func Parse(s string) (Spec, error) {
	spec, err := Families.Parse(s)
	return Spec(spec), err
}

// MustParse is Parse for specs known good at compile time; it panics on
// error.
func MustParse(s string) Spec {
	spec, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// Canonical returns the named family's fully explicit spec: every declared
// parameter present at its default value, in declared order. It is the
// natural enumeration seed for tools sweeping Families.
func Canonical(name string) (Spec, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	fam, ok := Families.Lookup(key)
	if !ok {
		return Spec{}, fmt.Errorf("gen: %w %q", ErrUnknownFamily, name)
	}
	return Spec{Family: key, Params: fam.Params.Full(nil)}, nil
}

// New builds the graph a spec describes. Omitted parameters take their
// declared defaults; random families derive all randomness from seed. The
// returned graph is named with the fully explicit canonical spec string
// (defaults included), so reports and benchmark rows identify the exact
// instance.
func New(spec Spec, seed int64) (*graph.Graph, error) {
	fam, values, err := Families.Resolve(specgrammar.Spec(spec))
	if err != nil {
		return nil, err
	}
	full := Spec{Family: spec.Family, Params: fam.Params.Full(spec.Params)}
	var rng *rand.Rand
	if fam.Random {
		rng = rand.New(rand.NewSource(seed))
	}
	g, err := fam.Build(values, rng)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", full, err)
	}
	return graph.Renamed(g, full.String()), nil
}

// Build parses and builds in one step — the convenience entry point for
// CLIs and suites holding spec strings.
func Build(spec string, seed int64) (*graph.Graph, error) {
	parsed, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(parsed, seed)
}

// MustBuild is Build for specs known good at compile time; it panics on
// error.
func MustBuild(spec string, seed int64) *graph.Graph {
	g, err := Build(spec, seed)
	if err != nil {
		panic(err)
	}
	return g
}
