package model

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/specgrammar"
)

// This file is the model registry and the spec grammar: every adversary and
// schedule family self-registers under a name, and a one-line spec string
// selects a model and binds its parameters:
//
//	sync
//	adversary:<family>[:key=value[,key=value]...]
//	schedule:<family>[:key=value[,key=value]...]
//
// Kind, family, and key names are case-insensitive; values must not contain
// ',', '=' or whitespace. Omitted parameters take the family's declared
// defaults.
// Random families consume the seed passed to New, so equal (spec, seed)
// pairs build identically-behaving models.
//
// A parsed Spec round-trips: String emits the parameters in the family's
// declared order, so Parse(spec.String()) == spec for every parseable spec,
// and Parse(s).String() == s for every canonically ordered s.
//
// The typed-parameter machinery is the shared kernel in
// internal/specgrammar, instantiated identically by the graph and analysis
// registries; only the kind:family prefix level is model-specific.

// Kind partitions the model axis.
type Kind string

// The three model kinds.
const (
	// KindSync is the paper's synchronous model — the identity model,
	// executed by the ordinary engines. It has no families or parameters.
	KindSync Kind = "sync"
	// KindAdversary is the asynchronous model under a delay adversary.
	KindAdversary Kind = "adversary"
	// KindSchedule is the dynamic-network model under an edge schedule.
	KindSchedule Kind = "schedule"
)

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
	// StringParam values are free-form except for spec metacharacters and
	// whitespace.
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

// AdversaryFamily declares one registered adversary: its parameters (order
// defines the canonical spec order), whether it consumes the seed, and the
// constructor.
type AdversaryFamily struct {
	// Params declares the accepted parameters in canonical order.
	Params []Param
	// Random marks families that consume the seed passed to New.
	Random bool
	// Doc is a one-line description for listings.
	Doc string
	// New constructs the adversary from resolved values. It must validate
	// ranges and return an error (never panic) on unusable parameters.
	New func(v Values, seed int64) (Adversary, error)
}

// ScheduleFamily declares one registered schedule, mirroring
// AdversaryFamily.
type ScheduleFamily struct {
	Params []Param
	Random bool
	Doc    string
	New    func(v Values, seed int64) (Schedule, error)
}

// family is the kind-agnostic registry entry.
type family struct {
	params specgrammar.Params
	random bool
	doc    string
	newAdv func(Values, int64) (Adversary, error)
	newSch func(Values, int64) (Schedule, error)
}

// Info describes a registered family for listings (afsim -list).
type Info struct {
	Params []Param
	Random bool
	Doc    string
}

var (
	regMu sync.RWMutex
	reg   = map[Kind]map[string]family{
		KindAdversary: {},
		KindSchedule:  {},
	}
)

// RegisterAdversary adds an adversary family under a name, normally from
// the defining package's init so importing it is all it takes to make the
// adversary spec-addressable. It panics on empty or duplicate names, nil
// constructors, and malformed parameter declarations — programmer errors.
func RegisterAdversary(name string, fam AdversaryFamily) {
	if fam.New == nil {
		panic("model: RegisterAdversary " + name + " with nil New")
	}
	register(KindAdversary, name, family{params: fam.Params, random: fam.Random, doc: fam.Doc, newAdv: fam.New})
}

// RegisterSchedule adds a schedule family under a name; see
// RegisterAdversary.
func RegisterSchedule(name string, fam ScheduleFamily) {
	if fam.New == nil {
		panic("model: RegisterSchedule " + name + " with nil New")
	}
	register(KindSchedule, name, family{params: fam.Params, random: fam.Random, doc: fam.Doc, newSch: fam.New})
}

func register(kind Kind, name string, fam family) {
	name = specgrammar.CheckName("model", name, "")
	fam.params.Validate("model", "family "+name)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[kind][name]; dup {
		panic(fmt.Sprintf("model: Register called twice for %s %s", kind, name))
	}
	reg[kind][name] = fam
}

// Families enumerates the registered family names of a kind, sorted.
// KindSync has none.
func Families(kind Kind) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(reg[kind]))
	for name := range reg[kind] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named family's declaration.
func Lookup(kind Kind, name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	fam, ok := reg[kind][strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Info{}, false
	}
	return Info{Params: fam.params, Random: fam.random, Doc: fam.doc}, true
}

// lookup is the internal accessor returning the constructor-bearing entry.
func lookup(kind Kind, name string) (family, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	fam, ok := reg[kind][name]
	return fam, ok
}

// Spec is a parsed model specification: a kind, a family name (empty for
// sync), and explicit parameter assignments. The zero value is invalid;
// build Specs with Parse. SyncSpec is the canonical synchronous spec.
type Spec struct {
	// Kind is the model kind.
	Kind Kind
	// Family is the lower-case registered family name; empty for sync.
	Family string
	// Params maps explicitly assigned parameter names to their raw
	// values; omitted parameters default at build time.
	Params map[string]string
}

// SyncSpec returns the canonical spec of the synchronous model.
func SyncSpec() Spec { return Spec{Kind: KindSync} }

// IsSync reports whether the spec names the synchronous model.
func (s Spec) IsSync() bool { return s.Kind == KindSync }

// EngineName returns the name of the engine a non-sync spec runs on, the
// one NewEngine stamps on its results: "async" under an adversary,
// "dynamic" under a schedule. The sync model runs on an engine chosen
// apart from it, so its EngineName is empty.
func (s Spec) EngineName() string {
	switch s.Kind {
	case KindAdversary:
		return "async"
	case KindSchedule:
		return "dynamic"
	}
	return ""
}

// String renders the canonical spec string: "sync", or the kind, family
// name, and any explicit parameters in the family's declared order. For
// specs produced by Parse, Parse(spec.String()) reproduces spec exactly.
func (s Spec) String() string {
	if s.Kind == KindSync {
		return string(KindSync)
	}
	head := string(s.Kind) + ":" + s.Family
	if len(s.Params) == 0 {
		return head
	}
	var decls specgrammar.Params
	if fam, ok := lookup(s.Kind, s.Family); ok {
		decls = fam.params
	}
	return head + ":" + decls.Canonical(s.Params)
}

// ErrUnknownModel is wrapped into errors for kinds or families outside the
// registry, matchable with errors.Is.
var ErrUnknownModel = fmt.Errorf("unknown execution model")

// Parse parses a model spec string (see the grammar at the top of this
// file) against the registry: the kind must be sync/adversary/schedule, the
// family registered, every key declared, and every value parseable as the
// declared kind. Parse never panics and never builds a model — use New for
// that.
func Parse(s string) (Spec, error) {
	kindName, rest, hasFamily := strings.Cut(strings.TrimSpace(s), ":")
	kindName = strings.ToLower(strings.TrimSpace(kindName))
	switch Kind(kindName) {
	case KindSync:
		if hasFamily && strings.TrimSpace(rest) != "" {
			return Spec{}, fmt.Errorf("model: the sync model takes no family or parameters (got %q)", s)
		}
		return SyncSpec(), nil
	case KindAdversary, KindSchedule:
		// parsed below
	case "":
		return Spec{}, fmt.Errorf("model: empty model spec")
	default:
		return Spec{}, fmt.Errorf("model: %w kind %q (want sync, adversary, or schedule)", ErrUnknownModel, kindName)
	}
	kind := Kind(kindName)
	famName, paramStr, hasParams := strings.Cut(rest, ":")
	famName = strings.ToLower(strings.TrimSpace(famName))
	if famName == "" {
		return Spec{}, fmt.Errorf("model: spec %q names no %s family (registered: %s)", s, kind, strings.Join(Families(kind), ", "))
	}
	fam, ok := lookup(kind, famName)
	if !ok {
		return Spec{}, fmt.Errorf("model: %w %s:%s (registered: %s)", ErrUnknownModel, kind, famName, strings.Join(Families(kind), ", "))
	}
	spec := Spec{Kind: kind, Family: famName}
	if !hasParams {
		return spec, nil
	}
	params, err := fam.params.ParseTokenAssignments("model", s, string(kind)+" "+famName, paramStr)
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

// Model is a built execution model: the sync model (both fields nil), an
// adversary, or a schedule. Spec is the parsed spec that built it.
type Model struct {
	Spec      Spec
	Adversary Adversary
	Schedule  Schedule
}

// New builds the model a spec describes. Omitted parameters take their
// declared defaults; random families derive all randomness from seed.
func New(spec Spec, seed int64) (Model, error) {
	if spec.Kind == KindSync {
		if spec.Family != "" || len(spec.Params) > 0 {
			return Model{}, fmt.Errorf("model: the sync model takes no family or parameters")
		}
		return Model{Spec: SyncSpec()}, nil
	}
	fam, ok := lookup(spec.Kind, spec.Family)
	if !ok {
		return Model{}, fmt.Errorf("model: %w %s:%s (registered: %s)", ErrUnknownModel, spec.Kind, spec.Family, strings.Join(Families(spec.Kind), ", "))
	}
	values, err := fam.params.Resolve("model", fmt.Sprintf("%s %s", spec.Kind, spec.Family), spec.Params)
	if err != nil {
		return Model{}, err
	}
	m := Model{Spec: spec}
	switch spec.Kind {
	case KindAdversary:
		m.Adversary, err = fam.newAdv(values, seed)
	case KindSchedule:
		m.Schedule, err = fam.newSch(values, seed)
	}
	if err != nil {
		return Model{}, fmt.Errorf("model: %s: %w", spec, err)
	}
	return m, nil
}

// Validate checks the model against the graph it is about to run on: an
// adversary or schedule implementing Validator must name only nodes and
// edges of g. The sync model and the models naming nothing always pass.
func (m Model) Validate(g *graph.Graph) error {
	var named any = m.Adversary
	if m.Schedule != nil {
		named = m.Schedule
	}
	if v, ok := named.(Validator); ok {
		if err := v.Validate(g); err != nil {
			return fmt.Errorf("model: %s on %s: %w", m.Spec, g, err)
		}
	}
	return nil
}

// Build parses and builds in one step — the convenience entry point for
// CLIs and suites holding spec strings.
func Build(spec string, seed int64) (Model, error) {
	parsed, err := Parse(spec)
	if err != nil {
		return Model{}, err
	}
	return New(parsed, seed)
}

// MustBuild is Build for specs known good at compile time; it panics on
// error.
func MustBuild(spec string, seed int64) Model {
	m, err := Build(spec, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Specs enumerates the canonical family specs of every registered model,
// sync first — the natural seed for tools sweeping the model axis.
func Specs() []string {
	out := []string{string(KindSync)}
	for _, name := range Families(KindAdversary) {
		out = append(out, string(KindAdversary)+":"+name)
	}
	for _, name := range Families(KindSchedule) {
		out = append(out, string(KindSchedule)+":"+name)
	}
	return out
}
