package specgrammar

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Decl is what a Registry reads of every family it stores.
type Decl struct {
	// Params declares the accepted parameters in canonical order.
	Params Params
	// Doc is a one-line description for listings.
	Doc string
	// Random marks families that consume the seed they are built with.
	Random bool
	// Ready reports that the family has a constructor; Register panics on
	// a family without one.
	Ready bool
}

// Family is the constraint on the families a Registry stores: each one
// declares itself.
type Family interface {
	Decl() Decl
}

// Axis configures a Registry: how its messages read and what its specs may
// hold.
type Axis struct {
	// Prefix starts every error and panic message: the name of the axis's
	// package ("gen").
	Prefix string
	// Kind is the kind of family a registry of a multi-kind axis holds
	// ("adversary"): its specs read kind:family[:key=value,...] and its
	// messages name a family "adversary hold". Empty on a single-kind axis,
	// whose specs are family[:key=value,...] and whose messages say
	// "family hold".
	Kind string
	// Noun names a single-kind axis's specs in its empty-spec error
	// ("graph": "gen: empty graph spec").
	Noun string
	// Unknown is the sentinel every unknown-family error wraps.
	Unknown error
	// Spaces lets parameter values hold inner whitespace, as a graph's
	// edgefile path may. Otherwise a spec is one token wherever it is
	// written, and a value holding whitespace is an error.
	Spaces bool
}

// Spec is a parsed spec: a registered family and the parameters it assigns
// explicitly.
type Spec struct {
	// Family is the lower-case registered family name.
	Family string
	// Params maps explicitly assigned parameter names to their raw values;
	// omitted parameters take their declared defaults.
	Params map[string]string
}

// Registry is the family store of one registry axis (of one kind of the
// model axis): it registers families under case-insensitive names, parses
// specs against their declarations, renders them canonically, resolves
// them over the declared defaults, and lists them. It is safe for
// concurrent use.
type Registry[F Family] struct {
	axis Axis
	mu   sync.RWMutex
	fams map[string]F
}

// NewRegistry returns an empty registry for an axis.
func NewRegistry[F Family](axis Axis) *Registry[F] {
	return &Registry[F]{axis: axis, fams: map[string]F{}}
}

// Register adds a family under a name, normally from the defining package's
// init, so that importing the package is all it takes to make the family
// spec-addressable. Names are lower-cased and trimmed. Register panics on an
// empty name or one holding ':', ',', '=', whitespace or '.' (which
// separates family and metric in flattened analysis columns), a family
// without a constructor, malformed parameter declarations, and a name
// registered twice: all programmer errors.
func (r *Registry[F]) Register(name string, fam F) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		panic(r.axis.Prefix + ": Register with empty family name")
	}
	if strings.ContainsAny(name, ":,= \t.") {
		panic(r.axis.Prefix + ": family name " + name + " contains spec metacharacters")
	}
	decl := fam.Decl()
	if !decl.Ready {
		panic(r.axis.Prefix + ": Register " + name + " with nil constructor")
	}
	decl.Params.Validate(r.axis.Prefix, r.owner(name))
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(r.axis.Prefix + ": Register called twice for " + r.owner(name))
	}
	r.fams[name] = fam
}

// Names lists the registered family names, sorted.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.fams))
}

// Lookup returns the named family. Names are case-insensitive and trimmed.
func (r *Registry[F]) Lookup(name string) (F, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam, ok := r.fams[strings.ToLower(strings.TrimSpace(name))]
	return fam, ok
}

// Unknown returns the error for a name outside the registry, as given: it
// wraps the axis's sentinel and lists the registered names. Callers put
// their own prefix before it.
func (r *Registry[F]) Unknown(name string) error {
	registered := strings.Join(r.Names(), ", ")
	if r.axis.Kind != "" {
		return fmt.Errorf("%w %s:%s (registered: %s)", r.axis.Unknown, r.axis.Kind, name, registered)
	}
	return fmt.Errorf("%w %q (registered: %s)", r.axis.Unknown, name, registered)
}

// Parse parses a spec string, family[:key=value[,key=value]...] (after
// "kind:" on a multi-kind axis), against the registry: the family must be
// registered, every key declared and assigned once, and every value
// parseable as its declared kind. Family and key names are
// case-insensitive; keys and values are trimmed. Parse never panics and
// never builds anything.
func (r *Registry[F]) Parse(s string) (Spec, error) {
	body := strings.TrimSpace(s)
	if r.axis.Kind != "" {
		_, body, _ = strings.Cut(body, ":")
	}
	name, raw, hasParams := strings.Cut(body, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		if r.axis.Kind != "" {
			return Spec{}, fmt.Errorf("%s: spec %q names no %s family (registered: %s)", r.axis.Prefix, s, r.axis.Kind, strings.Join(r.Names(), ", "))
		}
		return Spec{}, fmt.Errorf("%s: empty %s spec", r.axis.Prefix, r.axis.Noun)
	}
	fam, ok := r.Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("%s: %w", r.axis.Prefix, r.Unknown(name))
	}
	if !hasParams {
		return Spec{Family: name}, nil
	}
	decls := fam.Decl().Params
	parse := decls.ParseTokenAssignments
	if r.axis.Spaces {
		parse = decls.ParseAssignments
	}
	params, err := parse(r.axis.Prefix, s, r.owner(name), raw)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: name, Params: params}, nil
}

// Format renders a spec canonically: "kind:" on a multi-kind axis, the
// family, then its explicit parameters in declared order. So
// Parse(Format(sp)) reproduces every parsed sp, and Format(Parse(s)) == s
// for every canonically ordered s.
func (r *Registry[F]) Format(sp Spec) string {
	out := sp.Family
	if r.axis.Kind != "" {
		out = r.axis.Kind + ":" + out
	}
	if len(sp.Params) == 0 {
		return out
	}
	var decls Params
	if fam, ok := r.Lookup(sp.Family); ok {
		decls = fam.Decl().Params
	}
	return out + ":" + decls.Canonical(sp.Params)
}

// Resolve looks a spec's family up and type-checks its explicit parameters
// over the declared defaults into the Values its constructor reads.
func (r *Registry[F]) Resolve(sp Spec) (F, Values, error) {
	fam, ok := r.Lookup(sp.Family)
	if !ok {
		return fam, Values{}, fmt.Errorf("%s: %w", r.axis.Prefix, r.Unknown(sp.Family))
	}
	values, err := fam.Decl().Params.Resolve(r.axis.Prefix, r.owner(sp.Family), sp.Params)
	return fam, values, err
}

// owner names a family in messages: "family grid", or "adversary hold" on
// a multi-kind axis.
func (r *Registry[F]) owner(name string) string {
	if r.axis.Kind != "" {
		return r.axis.Kind + " " + name
	}
	return "family " + name
}

// Entry is one registered family, as listings show it.
type Entry[F Family] struct {
	Decl
	// Kind is the registry's kind on a multi-kind axis, else empty.
	Kind string
	// Name is the registered family name.
	Name string
	// Family is the family itself, for the fields only its axis has.
	Family F
}

// Entries lists every registered family in name order: the one listing
// behind afsim -list, afviz -list and afsimd's GET /v1/registry.
func (r *Registry[F]) Entries() []Entry[F] {
	names := r.Names()
	out := make([]Entry[F], len(names))
	for i, name := range names {
		fam, _ := r.Lookup(name)
		out[i] = Entry[F]{Decl: fam.Decl(), Kind: r.axis.Kind, Name: name, Family: fam}
	}
	return out
}

// Listing renders every registered family as one -list line:
// "  family: key kind (default value), ... — doc", with "kind:" before the
// family on a multi-kind axis.
func (r *Registry[F]) Listing() string {
	var b strings.Builder
	for _, e := range r.Entries() {
		b.WriteString("  ")
		if e.Kind != "" {
			b.WriteString(e.Kind + ":")
		}
		b.WriteString(e.Name)
		for i, p := range e.Params {
			sep := ", "
			if i == 0 {
				sep = ": "
			}
			fmt.Fprintf(&b, "%s%s %s (default %s)", sep, p.Name, p.Kind, p.Default)
		}
		if e.Doc != "" {
			b.WriteString(" — " + e.Doc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
