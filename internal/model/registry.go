package model

import (
	"fmt"
	"strings"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/specgrammar"
)

// This file is the model axis of the spec registry (internal/specgrammar):
// every adversary and schedule family registers in Adversaries or Schedules
// under a name, and a one-line spec string selects a model and binds its
// parameters:
//
//	sync
//	adversary:<family>[:key=value[,key=value]...]
//	schedule:<family>[:key=value[,key=value]...]
//
// Kind, family, and key names are case-insensitive; values must not contain
// ',', '=' or whitespace. Omitted parameters take the family's declared
// defaults. Random families consume the seed passed to New, so equal
// (spec, seed) pairs build identically-behaving models, and
// Parse(s).String() == s for every canonically ordered s.

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

// Parameter kinds.
const (
	// IntParam values parse with strconv.Atoi.
	IntParam = specgrammar.IntParam
	// FloatParam values parse with strconv.ParseFloat.
	FloatParam = specgrammar.FloatParam
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
	Params specgrammar.Params
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
	Params specgrammar.Params
	Random bool
	Doc    string
	New    func(v Values, seed int64) (Schedule, error)
}

// Decl implements specgrammar.Family.
func (f AdversaryFamily) Decl() specgrammar.Decl {
	return specgrammar.Decl{Params: f.Params, Doc: f.Doc, Random: f.Random, Ready: f.New != nil}
}

// Decl implements specgrammar.Family.
func (f ScheduleFamily) Decl() specgrammar.Decl {
	return specgrammar.Decl{Params: f.Params, Doc: f.Doc, Random: f.Random, Ready: f.New != nil}
}

// ErrUnknownModel is wrapped into errors for kinds or families outside the
// registry, matchable with errors.Is.
var ErrUnknownModel = fmt.Errorf("unknown execution model")

// Adversaries and Schedules are the model axis's registries, one per kind.
// Register families from the defining package's init, so that importing it
// is all it takes to make them spec-addressable.
var (
	Adversaries = specgrammar.NewRegistry[AdversaryFamily](specgrammar.Axis{
		Prefix: "model", Kind: string(KindAdversary), Unknown: ErrUnknownModel,
	})
	Schedules = specgrammar.NewRegistry[ScheduleFamily](specgrammar.Axis{
		Prefix: "model", Kind: string(KindSchedule), Unknown: ErrUnknownModel,
	})
)

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
// name, and any explicit parameters in the family's declared order.
func (s Spec) String() string {
	sp := specgrammar.Spec{Family: s.Family, Params: s.Params}
	switch s.Kind {
	case KindAdversary:
		return Adversaries.Format(sp)
	case KindSchedule:
		return Schedules.Format(sp)
	}
	return string(s.Kind)
}

// Parse parses a model spec string (see the grammar at the top of this
// file): the kind must be sync, adversary or schedule, and the rest parses
// against that kind's registry. Parse never panics and never builds a
// model; use New for that.
func Parse(s string) (Spec, error) {
	kindName, rest, hasFamily := strings.Cut(strings.TrimSpace(s), ":")
	kind := Kind(strings.ToLower(strings.TrimSpace(kindName)))
	var sp specgrammar.Spec
	var err error
	switch kind {
	case KindSync:
		if hasFamily && strings.TrimSpace(rest) != "" {
			return Spec{}, fmt.Errorf("model: the sync model takes no family or parameters (got %q)", s)
		}
		return SyncSpec(), nil
	case KindAdversary:
		sp, err = Adversaries.Parse(s)
	case KindSchedule:
		sp, err = Schedules.Parse(s)
	case "":
		return Spec{}, fmt.Errorf("model: empty model spec")
	default:
		return Spec{}, fmt.Errorf("model: %w kind %q (want sync, adversary, or schedule)", ErrUnknownModel, kind)
	}
	if err != nil {
		return Spec{}, err
	}
	return Spec{Kind: kind, Family: sp.Family, Params: sp.Params}, nil
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
	sp := specgrammar.Spec{Family: spec.Family, Params: spec.Params}
	m := Model{Spec: spec}
	var err error
	switch spec.Kind {
	case KindSync:
		if spec.Family != "" || len(spec.Params) > 0 {
			return Model{}, fmt.Errorf("model: the sync model takes no family or parameters")
		}
		return Model{Spec: SyncSpec()}, nil
	case KindAdversary:
		fam, values, rerr := Adversaries.Resolve(sp)
		if rerr != nil {
			return Model{}, rerr
		}
		m.Adversary, err = fam.New(values, seed)
	case KindSchedule:
		fam, values, rerr := Schedules.Resolve(sp)
		if rerr != nil {
			return Model{}, rerr
		}
		m.Schedule, err = fam.New(values, seed)
	default:
		return Model{}, fmt.Errorf("model: %w kind %q (want sync, adversary, or schedule)", ErrUnknownModel, spec.Kind)
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
	for _, name := range Adversaries.Names() {
		out = append(out, string(KindAdversary)+":"+name)
	}
	for _, name := range Schedules.Names() {
		out = append(out, string(KindSchedule)+":"+name)
	}
	return out
}
