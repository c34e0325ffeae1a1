// Package specgrammar is the one registry behind every spec axis of the
// simulator: graph families (internal/graph/gen), execution models
// (internal/model, one registry per kind), analyses (internal/analysis) and
// protocols (internal/sim). Families are addressed by one-line spec strings
// of the shape
//
//	family[:key=value[,key=value]...]
//
// and each axis is one Registry: it stores its families under sorted,
// case-insensitive names, checks them at Register time (name, constructor,
// parameter declarations, duplicates), parses specs against typed
// parameter declarations (int, float, bool, string), renders them
// canonically in declared order (so Parse(s).String() == s for canonically
// ordered s), resolves explicit assignments over declared defaults into
// type-checked Values, and lists its entries for afsim -list, afviz -list
// and afsimd's GET /v1/registry. The canonical strings are also the wire
// format of the afsimd service and of the shard protocol.
//
// An axis keeps only what is its own: its family type and constructor
// call, its error prefix and errors.Is sentinel (an Axis), the model axis's
// sync/adversary:/schedule: prefix, and whether its values may hold
// whitespace (graph specs may, for edgefile paths; model and analysis specs
// are single tokens).
package specgrammar

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// Kind types a family parameter.
type Kind int

// Parameter kinds.
const (
	// IntParam values parse with strconv.Atoi.
	IntParam Kind = iota + 1
	// FloatParam values parse with strconv.ParseFloat (probabilities).
	FloatParam
	// BoolParam values parse with strconv.ParseBool.
	BoolParam
	// StringParam values are free-form except for the spec metacharacters
	// ':', ',' and '='.
	StringParam
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case IntParam:
		return "int"
	case FloatParam:
		return "float"
	case BoolParam:
		return "bool"
	case StringParam:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Check validates that raw parses as a value of kind k.
func (k Kind) Check(raw string) error {
	var err error
	switch k {
	case IntParam:
		_, err = strconv.Atoi(raw)
	case FloatParam:
		_, err = strconv.ParseFloat(raw, 64)
	case BoolParam:
		_, err = strconv.ParseBool(raw)
	case StringParam:
		if strings.ContainsAny(raw, ":,=") {
			err = fmt.Errorf("string value %q contains spec metacharacters", raw)
		}
	default:
		err = fmt.Errorf("unknown parameter kind %d", int(k))
	}
	return err
}

// Param declares one parameter of a family: its name, type, default value
// (a canonical literal of the declared kind), and a one-line doc string for
// -list output.
type Param struct {
	Name    string
	Kind    Kind
	Default string
	Doc     string
}

// Params is an ordered parameter declaration list; the order defines the
// canonical spec order of a family's assignments.
type Params []Param

// Lookup returns the declaration of the named parameter, or nil.
func (ps Params) Lookup(name string) *Param {
	for i := range ps {
		if ps[i].Name == name {
			return &ps[i]
		}
	}
	return nil
}

// Doc renders the declarations for error messages and listings, e.g.
// "rows int, cols int", or "no parameters" for an empty list.
func (ps Params) Doc() string {
	if len(ps) == 0 {
		return "no parameters"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Name + " " + p.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Validate panics on malformed declarations — empty or metacharacter-bearing
// names, duplicate names, defaults that do not parse as their declared kind.
// Registries call it at Register time; a bad declaration is a programmer
// error in the registering package, never user input. prefix is the
// registry's package name, owner the family being registered (both only feed
// the panic message).
func (ps Params) Validate(prefix, owner string) {
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || strings.ContainsAny(p.Name, ":,= \t") {
			panic(prefix + ": " + owner + " declares invalid parameter name " + strconv.Quote(p.Name))
		}
		if seen[p.Name] {
			panic(prefix + ": " + owner + " declares parameter " + p.Name + " twice")
		}
		seen[p.Name] = true
		if err := p.Kind.Check(p.Default); err != nil {
			panic(fmt.Sprintf("%s: %s parameter %s has unparseable default %q: %v", prefix, owner, p.Name, p.Default, err))
		}
	}
}

// ParseAssignments parses a raw "key=value[,key=value]..." list against the
// declarations: every key must be declared, every value parseable as the
// declared kind, no key assigned twice. Keys are lower-cased and
// whitespace-trimmed; empty keys or values are errors. spec is the full
// original spec string and owner the family description — both feed error
// messages only. An empty raw list is an error (a trailing ':' with nothing
// after it).
func (ps Params) ParseAssignments(prefix, spec, owner, raw string) (map[string]string, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("%s: spec %q has an empty parameter list (drop the trailing ':')", prefix, spec)
	}
	out := map[string]string{}
	for _, kv := range strings.Split(raw, ",") {
		key, value, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		if !ok || key == "" || value == "" {
			return nil, fmt.Errorf("%s: spec %q: want key=value, got %q", prefix, spec, kv)
		}
		decl := ps.Lookup(key)
		if decl == nil {
			return nil, fmt.Errorf("%s: spec %q: %s has no parameter %q (accepts %s)", prefix, spec, owner, key, ps.Doc())
		}
		if err := decl.Kind.Check(value); err != nil {
			return nil, fmt.Errorf("%s: spec %q: parameter %s wants %s, got %q", prefix, spec, key, decl.Kind, value)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s: spec %q assigns parameter %s twice", prefix, spec, key)
		}
		out[key] = value
	}
	return out, nil
}

// ParseTokenAssignments is ParseAssignments for specs that are one token
// wherever they are written (a flag, a suite's list, a wire field), as
// model and analysis specs are: a value holding whitespace is an error, so
// no canonical form holds any. ParseAssignments itself trims values but
// keeps inner whitespace, which a graph's edgefile path needs.
func (ps Params) ParseTokenAssignments(prefix, spec, owner, raw string) (map[string]string, error) {
	out, err := ps.ParseAssignments(prefix, spec, owner, raw)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if v, set := out[p.Name]; set && strings.ContainsFunc(v, unicode.IsSpace) {
			return nil, fmt.Errorf("%s: spec %q: parameter %s value %q contains whitespace", prefix, spec, p.Name, v)
		}
	}
	return out, nil
}

// Canonical renders explicit assignments as "key=value,..." with declared
// parameters first in declaration order, then any undeclared keys trailing
// in alphabetical order (possible only on hand-built specs, which the
// registries' builders reject) — so rendering stays total and
// deterministic. An empty assignment map renders as "".
func (ps Params) Canonical(explicit map[string]string) string {
	if len(explicit) == 0 {
		return ""
	}
	ordered := make([]string, 0, len(explicit))
	emitted := map[string]bool{}
	for _, p := range ps {
		if v, set := explicit[p.Name]; set {
			ordered = append(ordered, p.Name+"="+v)
			emitted[p.Name] = true
		}
	}
	var extra []string
	for k, v := range explicit {
		if !emitted[k] {
			extra = append(extra, k+"="+v)
		}
	}
	slices.Sort(extra)
	return strings.Join(append(ordered, extra...), ",")
}

// Full returns the fully explicit assignment map: every declared parameter
// present, explicit values over declared defaults. Undeclared explicit keys
// are dropped (Resolve rejects them before any caller needs Full). The graph
// registry names built graphs with Canonical(Full(...)) so every instance
// carries its exact parameters.
func (ps Params) Full(explicit map[string]string) map[string]string {
	if len(ps) == 0 {
		return nil
	}
	full := make(map[string]string, len(ps))
	for _, p := range ps {
		raw, set := explicit[p.Name]
		if !set {
			raw = p.Default
		}
		full[p.Name] = raw
	}
	return full
}

// Resolve type-checks explicit assignments over declared defaults into
// Values. Undeclared keys and unparseable values are errors (user input, not
// programmer errors). prefix and owner feed error messages only.
func (ps Params) Resolve(prefix, owner string, explicit map[string]string) (Values, error) {
	for k := range explicit {
		if ps.Lookup(k) == nil {
			return Values{}, fmt.Errorf("%s: %s has no parameter %q (accepts %s)", prefix, owner, k, ps.Doc())
		}
	}
	values := Values{ints: map[string]int{}, floats: map[string]float64{}, bools: map[string]bool{}, strs: map[string]string{}}
	for _, p := range ps {
		raw, set := explicit[p.Name]
		if !set {
			raw = p.Default
		}
		var err error
		switch p.Kind {
		case IntParam:
			values.ints[p.Name], err = strconv.Atoi(raw)
		case FloatParam:
			values.floats[p.Name], err = strconv.ParseFloat(raw, 64)
		case BoolParam:
			values.bools[p.Name], err = strconv.ParseBool(raw)
		case StringParam:
			err = p.Kind.Check(raw)
			values.strs[p.Name] = raw
		}
		if err != nil {
			return Values{}, fmt.Errorf("%s: %s: parameter %s wants %s, got %q", prefix, owner, p.Name, p.Kind, raw)
		}
	}
	return values, nil
}

// Values holds the resolved, type-checked parameters handed to a family's
// constructor. Accessors are keyed by declared parameter name; asking for an
// undeclared parameter is a programmer error and panics.
type Values struct {
	ints   map[string]int
	floats map[string]float64
	bools  map[string]bool
	strs   map[string]string
}

// Int returns the named int parameter.
func (v Values) Int(name string) int {
	n, ok := v.ints[name]
	if !ok {
		panic("specgrammar: constructor read undeclared int parameter " + name)
	}
	return n
}

// Float returns the named float parameter.
func (v Values) Float(name string) float64 {
	f, ok := v.floats[name]
	if !ok {
		panic("specgrammar: constructor read undeclared float parameter " + name)
	}
	return f
}

// Bool returns the named bool parameter.
func (v Values) Bool(name string) bool {
	b, ok := v.bools[name]
	if !ok {
		panic("specgrammar: constructor read undeclared bool parameter " + name)
	}
	return b
}

// String returns the named string parameter.
func (v Values) String(name string) string {
	s, ok := v.strs[name]
	if !ok {
		panic("specgrammar: constructor read undeclared string parameter " + name)
	}
	return s
}
