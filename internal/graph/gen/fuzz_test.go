package gen_test

import (
	"reflect"
	"testing"

	"amnesiacflood/internal/graph/gen"
)

// FuzzGenParse asserts the spec grammar's two safety properties on
// arbitrary input: Parse never panics, and every accepted spec round-trips
// through its canonical String form — same string, same parsed Spec.
func FuzzGenParse(f *testing.F) {
	for _, name := range gen.Families.Names() {
		f.Add(name)
		if canon, err := gen.Canonical(name); err == nil {
			f.Add(canon.String())
		}
	}
	f.Add("grid:rows=64,cols=64")
	f.Add("gnp:n=10,p=0.5,connect=true")
	f.Add("grid:cols=2,rows=3")
	f.Add("grid:rows=4,rows=4")
	f.Add(":::")
	f.Add("path:n==3")
	f.Add("path:n=3,")
	f.Add("  CYCLE : N = 12  ")
	f.Add("\x00\xff")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := gen.Parse(s)
		if err != nil {
			return
		}
		canonical := spec.String()
		back, err := gen.Parse(canonical)
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
