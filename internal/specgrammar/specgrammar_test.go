package specgrammar_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"amnesiacflood/internal/specgrammar"
)

var decls = specgrammar.Params{
	{Name: "n", Kind: specgrammar.IntParam, Default: "8", Doc: "size"},
	{Name: "p", Kind: specgrammar.FloatParam, Default: "0.5", Doc: "probability"},
	{Name: "connect", Kind: specgrammar.BoolParam, Default: "false", Doc: "connectify"},
	{Name: "metric", Kind: specgrammar.StringParam, Default: "rounds", Doc: "quantity"},
}

func TestKindCheck(t *testing.T) {
	cases := []struct {
		kind specgrammar.Kind
		raw  string
		ok   bool
	}{
		{specgrammar.IntParam, "42", true},
		{specgrammar.IntParam, "4.2", false},
		{specgrammar.FloatParam, "0.25", true},
		{specgrammar.FloatParam, "x", false},
		{specgrammar.BoolParam, "true", true},
		{specgrammar.BoolParam, "yes", false},
		{specgrammar.StringParam, "messages", true},
		{specgrammar.StringParam, "a=b", false},
		{specgrammar.StringParam, "a,b", false},
		{specgrammar.StringParam, "a:b", false},
	}
	for _, c := range cases {
		if err := c.kind.Check(c.raw); (err == nil) != c.ok {
			t.Errorf("Kind(%s).Check(%q) = %v, want ok=%v", c.kind, c.raw, err, c.ok)
		}
	}
}

func TestParseAssignmentsRoundTrip(t *testing.T) {
	for _, raw := range []string{"n=4", "n=4,p=0.25", "p=0.25,connect=true", "metric=messages", "n=1,p=2,connect=true,metric=x"} {
		got, err := decls.ParseAssignments("test", "fam:"+raw, "family fam", raw)
		if err != nil {
			t.Fatalf("ParseAssignments(%q): %v", raw, err)
		}
		// Canonical re-renders declared-order inputs identically.
		if canon := decls.Canonical(got); canon != raw {
			t.Errorf("Canonical(Parse(%q)) = %q", raw, canon)
		}
	}
	// Out-of-order input canonicalises to declared order.
	got, err := decls.ParseAssignments("test", "s", "family fam", "p=0.25,n=4")
	if err != nil {
		t.Fatal(err)
	}
	if canon := decls.Canonical(got); canon != "n=4,p=0.25" {
		t.Errorf("Canonical out-of-order = %q, want n=4,p=0.25", canon)
	}
}

func TestParseAssignmentsErrors(t *testing.T) {
	for _, raw := range []string{"", "  ", "n", "n=", "=4", "n=x", "n=4,n=5", "q=1", "p=zero", "connect=maybe", "metric=a=b"} {
		if _, err := decls.ParseAssignments("test", "fam:"+raw, "family fam", raw); err == nil {
			t.Errorf("ParseAssignments(%q) succeeded, want error", raw)
		}
	}
}

// TestParseTokenAssignments: one-token specs refuse whitespace inside a
// value, which plain assignments keep (an edgefile path may hold spaces).
func TestParseTokenAssignments(t *testing.T) {
	raw := "metric= mess ages ,n=4"
	if got, err := decls.ParseAssignments("test", "fam:"+raw, "family fam", raw); err != nil || got["metric"] != "mess ages" {
		t.Fatalf("ParseAssignments(%q) = %v, %v, want metric %q", raw, got, err, "mess ages")
	}
	for _, raw := range []string{raw, "metric=a\tb", "n=4,metric=a\u00a0b"} {
		if _, err := decls.ParseTokenAssignments("test", "fam:"+raw, "family fam", raw); err == nil || !strings.Contains(err.Error(), "whitespace") {
			t.Errorf("ParseTokenAssignments(%q) err = %v, want a whitespace error", raw, err)
		}
	}
	if got, err := decls.ParseTokenAssignments("test", "fam: metric = messages ", "family fam", " metric = messages "); err != nil || got["metric"] != "messages" {
		t.Fatalf("ParseTokenAssignments trims: %v, %v", got, err)
	}
}

func TestResolveDefaultsAndOverrides(t *testing.T) {
	v, err := decls.Resolve("test", "family fam", map[string]string{"n": "16", "metric": "messages"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("n") != 16 || v.Float("p") != 0.5 || v.Bool("connect") || v.String("metric") != "messages" {
		t.Errorf("Resolve mixed explicit/default values wrong: n=%d p=%v connect=%v metric=%q",
			v.Int("n"), v.Float("p"), v.Bool("connect"), v.String("metric"))
	}
	if _, err := decls.Resolve("test", "family fam", map[string]string{"nope": "1"}); err == nil || !strings.Contains(err.Error(), "no parameter") {
		t.Errorf("Resolve undeclared key: err = %v, want 'no parameter'", err)
	}
	if _, err := decls.Resolve("test", "family fam", map[string]string{"n": "x"}); err == nil {
		t.Error("Resolve unparseable value succeeded, want error")
	}
}

func TestFull(t *testing.T) {
	full := decls.Full(map[string]string{"n": "3"})
	want := map[string]string{"n": "3", "p": "0.5", "connect": "false", "metric": "rounds"}
	if len(full) != len(want) {
		t.Fatalf("Full = %v, want %v", full, want)
	}
	for k, v := range want {
		if full[k] != v {
			t.Errorf("Full[%q] = %q, want %q", k, full[k], v)
		}
	}
	if specgrammar.Params(nil).Full(nil) != nil {
		t.Error("empty Params.Full should be nil")
	}
}

func TestValuesPanicsOnUndeclared(t *testing.T) {
	v, err := decls.Resolve("test", "family fam", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("reading undeclared parameter did not panic")
		}
	}()
	v.Int("undeclared")
}

func TestValidatePanics(t *testing.T) {
	cases := map[string]specgrammar.Params{
		"empty name":    {{Name: "", Kind: specgrammar.IntParam, Default: "1"}},
		"metacharacter": {{Name: "a=b", Kind: specgrammar.IntParam, Default: "1"}},
		"duplicate":     {{Name: "n", Kind: specgrammar.IntParam, Default: "1"}, {Name: "n", Kind: specgrammar.IntParam, Default: "2"}},
		"bad default":   {{Name: "n", Kind: specgrammar.IntParam, Default: "x"}},
	}
	for name, ps := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Validate did not panic", name)
				}
			}()
			ps.Validate("test", "family fam")
		}()
	}
	// A well-formed list must not panic.
	decls.Validate("test", "family fam")
}

// testFamily is a registry entry for these tests.
type testFamily struct {
	params specgrammar.Params
	doc    string
	build  func() int
}

func (f testFamily) Decl() specgrammar.Decl {
	return specgrammar.Decl{Params: f.params, Doc: f.doc, Ready: f.build != nil}
}

var errUnknownTest = errors.New("unknown test family")

func newTestRegistry(axis specgrammar.Axis) *specgrammar.Registry[testFamily] {
	r := specgrammar.NewRegistry[testFamily](axis)
	r.Register("  Fam ", testFamily{params: decls, doc: "a family", build: func() int { return 1 }})
	r.Register("bare", testFamily{build: func() int { return 2 }})
	return r
}

// TestCheckName: Register lower-cases and trims names, and panics on empty
// names, names holding spec metacharacters, whitespace or '.', a missing
// constructor, malformed declarations, and duplicates.
func TestCheckName(t *testing.T) {
	r := newTestRegistry(specgrammar.Axis{Prefix: "test", Noun: "test", Unknown: errUnknownTest})
	if got := r.Names(); !slices.Equal(got, []string{"bare", "fam"}) {
		t.Errorf("Names() = %v, want [bare fam]", got)
	}
	if _, ok := r.Lookup(" FAM "); !ok {
		t.Error("Lookup is not case-insensitive")
	}
	ok := func() int { return 0 }
	for name, f := range map[string]testFamily{
		"":        {build: ok},
		"a:b":     {build: ok},
		"a b":     {build: ok},
		"a.b":     {build: ok},
		"nilctor": {},
		"baddecl": {params: specgrammar.Params{{Name: "n", Kind: specgrammar.IntParam, Default: "x"}}, build: ok},
		"FAM":     {build: ok},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			r.Register(name, f)
		}()
	}
}

// TestRegistryGrammar: one registry parses, renders, resolves, lists and
// names unknown families for every axis shape.
func TestRegistryGrammar(t *testing.T) {
	r := newTestRegistry(specgrammar.Axis{Prefix: "test", Noun: "test", Unknown: errUnknownTest})
	sp, err := r.Parse(" FAM : METRIC=messages , N=4 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Format(sp); got != "fam:n=4,metric=messages" {
		t.Errorf("Format(Parse) = %q", got)
	}
	_, v, err := r.Resolve(sp)
	if err != nil || v.Int("n") != 4 || v.Float("p") != 0.5 {
		t.Errorf("Resolve = %v, %v", v, err)
	}
	if _, err := r.Parse("nosuch"); !errors.Is(err, errUnknownTest) || err.Error() != `test: unknown test family "nosuch" (registered: bare, fam)` {
		t.Errorf("Parse(nosuch) err = %v", err)
	}
	if _, _, err := r.Resolve(specgrammar.Spec{Family: "nosuch"}); !errors.Is(err, errUnknownTest) {
		t.Errorf("Resolve(nosuch) err = %v", err)
	}
	if _, err := r.Parse(" "); err == nil || err.Error() != "test: empty test spec" {
		t.Errorf("Parse(empty) err = %v", err)
	}
	if _, err := r.Parse("fam:metric=a b"); err == nil || !strings.Contains(err.Error(), "whitespace") {
		t.Errorf("a token registry accepted whitespace: %v", err)
	}
	spaced := newTestRegistry(specgrammar.Axis{Prefix: "test", Unknown: errUnknownTest, Spaces: true})
	if sp, err := spaced.Parse("fam:metric=a b"); err != nil || sp.Params["metric"] != "a b" {
		t.Errorf("a Spaces registry refused inner whitespace: %v, %v", sp, err)
	}
	want := "  bare\n  fam: n int (default 8), p float (default 0.5), connect bool (default false), metric string (default rounds) — a family\n"
	if got := r.Listing(); got != want {
		t.Errorf("Listing() = %q, want %q", got, want)
	}

	kinded := newTestRegistry(specgrammar.Axis{Prefix: "test", Kind: "adversary", Unknown: errUnknownTest})
	sp, err = kinded.Parse("Adversary:FAM:n=3")
	if err != nil || sp.Family != "fam" || kinded.Format(sp) != "adversary:fam:n=3" {
		t.Errorf("kinded Parse/Format = %v %q, %v", sp, kinded.Format(sp), err)
	}
	if _, err := kinded.Parse("adversary:nosuch"); err == nil || err.Error() != "test: unknown test family adversary:nosuch (registered: bare, fam)" {
		t.Errorf("kinded unknown err = %v", err)
	}
	if _, err := kinded.Parse("adversary"); err == nil || err.Error() != `test: spec "adversary" names no adversary family (registered: bare, fam)` {
		t.Errorf("kinded empty err = %v", err)
	}
	if e := kinded.Entries(); len(e) != 2 || e[1].Kind != "adversary" || e[1].Name != "fam" || e[1].Doc != "a family" {
		t.Errorf("Entries() = %+v", e)
	}
	if got := kinded.Listing(); !strings.HasPrefix(got, "  adversary:bare\n  adversary:fam: n int") {
		t.Errorf("kinded Listing() = %q", got)
	}
}

// TestRegistryConcurrentUse registers families while other goroutines
// parse, render, resolve and list; run it under -race.
func TestRegistryConcurrentUse(t *testing.T) {
	r := newTestRegistry(specgrammar.Axis{Prefix: "test", Noun: "test", Unknown: errUnknownTest})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				if g == 0 {
					r.Register(fmt.Sprintf("extra%d", i), testFamily{build: func() int { return i }})
					continue
				}
				sp, err := r.Parse("fam:n=3")
				if err != nil || r.Format(sp) != "fam:n=3" {
					t.Errorf("Parse/Format = %v, %v", sp, err)
					return
				}
				if _, _, err := r.Resolve(sp); err != nil {
					t.Error(err)
					return
				}
				_ = r.Listing()
			}
		}()
	}
	wg.Wait()
	if n := len(r.Names()); n != 202 {
		t.Errorf("%d families registered, want 202", n)
	}
}
