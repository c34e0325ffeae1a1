package analysis

import (
	"fmt"

	"amnesiacflood/internal/specgrammar"
)

// This file is the analysis axis of the spec registry
// (internal/specgrammar): every streaming analysis family registers in
// Families under a name, and a one-line spec string selects a family and
// binds its parameters:
//
//	family[:key=value[,key=value]...]
//
// Examples: "coverage", "termination", "quantiles:metric=messages". Family
// and key names are case-insensitive; values must not contain ',', '=' or
// whitespace. Omitted parameters take the family's declared defaults, and
// Parse(s).String() == s for every canonically ordered s.

// StringParam is the parameter kind of free-form values: any token
// without ':', ',', '=' or whitespace.
const StringParam = specgrammar.StringParam

// Param declares one parameter of a family: its name, type, default value
// (a canonical literal of the declared kind), and a one-line doc string for
// -list output.
type Param = specgrammar.Param

// Values holds the resolved, type-checked parameters handed to a family's
// constructor. Accessors are keyed by declared parameter name; asking for
// an undeclared parameter is a programmer error and panics.
type Values = specgrammar.Values

// Family describes one registered analysis: its parameter declarations
// (order defines the canonical spec order), the metric names it emits, and
// the constructor.
type Family struct {
	// Params declares the accepted parameters in canonical order.
	Params specgrammar.Params
	// Doc is a one-line description for listings (afsim -list).
	Doc string
	// Metrics lists the metric names the family can emit, unprefixed
	// (Finish keys them as "<family>.<name>"). Used for CSV column
	// planning and documentation; families whose metric set depends on
	// their parameters override it with MetricsFor.
	Metrics []string
	// MetricsFor, when non-nil, resolves the metric names for one
	// parameterised spec; nil means Metrics as declared.
	MetricsFor func(v Values) []string
	// New constructs the analyzer from the run context and resolved
	// values. It must validate ranges and return an error (never panic)
	// on unusable parameters.
	New func(ctx Context, v Values) (Analyzer, error)
}

// Decl implements specgrammar.Family.
func (f Family) Decl() specgrammar.Decl {
	return specgrammar.Decl{Params: f.Params, Doc: f.Doc, Ready: f.New != nil}
}

// ErrUnknownAnalysis is wrapped into errors for family names outside the
// registry, matchable with errors.Is.
var ErrUnknownAnalysis = fmt.Errorf("unknown analysis")

// Families is the analysis registry. Register families from an init; a
// family name may not hold '.', which separates family and metric in
// flattened "<family>.<metric>" column names.
var Families = specgrammar.NewRegistry[Family](specgrammar.Axis{
	Prefix: "analysis", Noun: "analysis", Unknown: ErrUnknownAnalysis,
})

// Spec is a parsed analysis specification: a family name plus explicit
// parameter assignments. The zero value is invalid; build Specs with Parse.
type Spec specgrammar.Spec

// String renders the canonical spec string: the family name, then any
// explicit parameters in the family's declared order.
func (s Spec) String() string { return Families.Format(specgrammar.Spec(s)) }

// Parse parses an analysis spec string against the registry (see the
// grammar at the top of this file). It never panics and never builds an
// analyzer; use Build for that.
func Parse(s string) (Spec, error) {
	spec, err := Families.Parse(s)
	return Spec(spec), err
}

// New builds the analyzer a spec describes for one run context. Omitted
// parameters take their declared defaults.
func New(spec Spec, ctx Context) (Analyzer, error) {
	fam, values, err := Families.Resolve(specgrammar.Spec(spec))
	if err != nil {
		return nil, err
	}
	a, err := fam.New(ctx, values)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", spec, err)
	}
	return a, nil
}

// Build parses and builds in one step — the convenience entry point for the
// sim façade, CLIs, and suites holding spec strings.
func Build(spec string, ctx Context) (Analyzer, error) {
	parsed, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(parsed, ctx)
}

// MetricNames resolves the prefixed metric names one spec string emits
// ("<family>.<metric>"), in declared order.
func MetricNames(spec string) ([]string, error) {
	parsed, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	fam, values, err := Families.Resolve(specgrammar.Spec(parsed))
	if err != nil {
		return nil, err
	}
	names := fam.Metrics
	if fam.MetricsFor != nil {
		names = fam.MetricsFor(values)
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = parsed.Family + "." + n
	}
	return out, nil
}

// MetricColumns resolves the union of the metric columns a list of specs
// can emit, deduplicated, in spec order — the CSV column plan for a suite
// running those analyses.
func MetricColumns(specs []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, spec := range specs {
		names, err := MetricNames(spec)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out, nil
}
