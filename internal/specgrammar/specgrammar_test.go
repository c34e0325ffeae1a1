package specgrammar_test

import (
	"strings"
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

func TestCheckName(t *testing.T) {
	if got := specgrammar.CheckName("test", "  GrId ", ""); got != "grid" {
		t.Errorf("CheckName normalised to %q, want grid", got)
	}
	for name, extra := range map[string]string{"": "", "a:b": "", "a b": "", "a.b": "."} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CheckName(%q) did not panic", name)
				}
			}()
			specgrammar.CheckName("test", name, extra)
		}()
	}
	// '.' is allowed without the extra ban.
	if got := specgrammar.CheckName("test", "a.b", ""); got != "a.b" {
		t.Errorf("CheckName(a.b) = %q", got)
	}
}
