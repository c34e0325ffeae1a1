package analysis_test

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"amnesiacflood/internal/analysis"
)

// FuzzAnalysisParse asserts the spec grammar's safety properties on
// arbitrary input: Parse never panics, every accepted spec round-trips
// through its canonical String form — same string, same parsed Spec — and
// no canonical form holds whitespace, since an analysis spec is one token
// wherever it is written. This is the same contract the graph-spec and
// model-spec fuzzers enforce, so all five façade axes share one grammar
// discipline.
func FuzzAnalysisParse(f *testing.F) {
	for _, name := range analysis.Families() {
		f.Add(name)
	}
	f.Add("quantiles:metric=messages")
	f.Add("quantiles:metric=rounds")
	f.Add("  Coverage  ")
	f.Add("coverage:")
	f.Add("quantiles:metric==x")
	f.Add("quantiles:metric=a,metric=b")
	f.Add(":::")
	f.Add("\x00\xff")
	f.Add("quantiles:metric=mess ages")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := analysis.Parse(s)
		if err != nil {
			return
		}
		canonical := spec.String()
		if strings.ContainsFunc(canonical, unicode.IsSpace) {
			t.Fatalf("Parse(%q): canonical form %q contains whitespace", s, canonical)
		}
		back, err := analysis.Parse(canonical)
		if err != nil {
			t.Fatalf("Parse(%q) ok but Parse(String()=%q) failed: %v", s, canonical, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec: %#v vs %#v", spec, back)
		}
		if again := back.String(); again != canonical {
			t.Fatalf("String not a fixed point: %q then %q", canonical, again)
		}
	})
}
