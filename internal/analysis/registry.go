package analysis

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"amnesiacflood/internal/specgrammar"
)

// This file is the analysis registry and its spec grammar: every streaming
// analysis family self-registers under a name, and a one-line spec string
// selects a family and binds its parameters:
//
//	family[:key=value[,key=value]...]
//
// Examples: "coverage", "termination", "quantiles:metric=messages". Family
// and key names are case-insensitive; values must not contain ',' or '='.
// Omitted parameters take the family's declared defaults.
//
// A parsed Spec round-trips: String emits the parameters in the family's
// declared order, so Parse(spec.String()) == spec for every parseable spec,
// and Parse(s).String() == s for every canonically ordered s — the same
// contract the graph (internal/graph/gen) and execution-model
// (internal/model) registries keep, making analysis the fifth spec-driven
// axis of the sim façade. The typed-parameter machinery underneath is the
// shared kernel in internal/specgrammar, instantiated by all three.

// ParamKind types a family parameter.
type ParamKind = specgrammar.Kind

// Parameter kinds.
const (
	// IntParam values parse with strconv.Atoi.
	IntParam = specgrammar.IntParam
	// FloatParam values parse with strconv.ParseFloat.
	FloatParam = specgrammar.FloatParam
	// BoolParam values parse with strconv.ParseBool.
	BoolParam = specgrammar.BoolParam
	// StringParam values are free-form except for the spec metacharacters
	// ':', ',' and '='.
	StringParam = specgrammar.StringParam
)

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
	Params []Param
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

// params returns the family's declarations as the kernel's ordered list.
func (f Family) params() specgrammar.Params { return specgrammar.Params(f.Params) }

var (
	famMu    sync.RWMutex
	famReg   = map[string]Family{}
	famNames []string // sorted cache, rebuilt on Register
)

// Register adds a family under a name, normally from this package's init so
// that importing analysis is all it takes to make every family
// spec-addressable. It panics on empty or duplicate names, nil
// constructors, and malformed parameter declarations — programmer errors.
// Family names additionally ban '.', which separates family and metric in
// flattened "<family>.<metric>" column names.
func Register(name string, fam Family) {
	name = specgrammar.CheckName("analysis", name, ".")
	if fam.New == nil {
		panic("analysis: Register " + name + " with nil New")
	}
	fam.params().Validate("analysis", "family "+name)
	famMu.Lock()
	defer famMu.Unlock()
	if _, dup := famReg[name]; dup {
		panic("analysis: Register called twice for family " + name)
	}
	famReg[name] = fam
	famNames = append(famNames, name)
	slices.Sort(famNames)
}

// Families enumerates the registered family names, sorted.
func Families() []string {
	famMu.RLock()
	defer famMu.RUnlock()
	return append([]string(nil), famNames...)
}

// Lookup returns the named family's declaration.
func Lookup(name string) (Family, bool) {
	famMu.RLock()
	defer famMu.RUnlock()
	fam, ok := famReg[strings.ToLower(strings.TrimSpace(name))]
	return fam, ok
}

// Spec is a parsed analysis specification: a family name plus explicit
// parameter assignments. The zero value is invalid; build Specs with Parse.
type Spec struct {
	// Family is the lower-case registered family name.
	Family string
	// Params maps explicitly assigned parameter names to their raw
	// values; omitted parameters default at build time.
	Params map[string]string
}

// String renders the canonical spec string: the family name, then any
// explicit parameters in the family's declared order. For specs produced by
// Parse, Parse(spec.String()) reproduces spec exactly.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Family
	}
	var decls specgrammar.Params
	if fam, ok := Lookup(s.Family); ok {
		decls = fam.params()
	}
	return s.Family + ":" + decls.Canonical(s.Params)
}

// ErrUnknownAnalysis is wrapped into errors for family names outside the
// registry, matchable with errors.Is.
var ErrUnknownAnalysis = fmt.Errorf("unknown analysis")

// Parse parses an analysis spec string (see the grammar at the top of this
// file) against the registry: the family must be registered, every key
// declared, and every value parseable as the declared kind. Parse never
// panics and never builds an analyzer — use Build for that.
func Parse(s string) (Spec, error) {
	famName, rest, hasParams := strings.Cut(strings.TrimSpace(s), ":")
	famName = strings.ToLower(strings.TrimSpace(famName))
	if famName == "" {
		return Spec{}, fmt.Errorf("analysis: empty analysis spec")
	}
	fam, ok := Lookup(famName)
	if !ok {
		return Spec{}, fmt.Errorf("analysis: %w %q (registered: %s)", ErrUnknownAnalysis, famName, strings.Join(Families(), ", "))
	}
	spec := Spec{Family: famName}
	if !hasParams {
		return spec, nil
	}
	params, err := fam.params().ParseTokenAssignments("analysis", s, "family "+famName, rest)
	if err != nil {
		return Spec{}, err
	}
	spec.Params = params
	return spec, nil
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

// resolve type-checks a spec against its family and returns the resolved
// values (explicit parameters over declared defaults).
func resolve(spec Spec) (Family, Values, error) {
	fam, ok := Lookup(spec.Family)
	if !ok {
		return Family{}, Values{}, fmt.Errorf("analysis: %w %q (registered: %s)", ErrUnknownAnalysis, spec.Family, strings.Join(Families(), ", "))
	}
	values, err := fam.params().Resolve("analysis", "family "+spec.Family, spec.Params)
	if err != nil {
		return Family{}, Values{}, err
	}
	return fam, values, nil
}

// New builds the analyzer a spec describes for one run context. Omitted
// parameters take their declared defaults.
func New(spec Spec, ctx Context) (Analyzer, error) {
	fam, values, err := resolve(spec)
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
	fam, values, err := resolve(parsed)
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
