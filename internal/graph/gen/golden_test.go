package gen_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"amnesiacflood/internal/graph/gen"
)

// TestParseGolden pins Parse(s).String(), or the error text, for every
// input of testdata/parse.golden, one "input => output" line each: every
// family bare and with all its parameters in reverse order and upper case,
// then unknown families, undeclared keys, whitespace inside a value, and
// empty or malformed specs. Every registered family must appear bare.
func TestParseGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parse.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		in, want, ok := strings.Cut(line, " => ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		spec, err := gen.Parse(in)
		got := spec.String()
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != want {
			t.Errorf("Parse(%q):\n got %s\nwant %s", in, got, want)
		}
		inputs = append(inputs, in)
	}
	for _, name := range gen.Families.Names() {
		if !slices.Contains(inputs, name) {
			t.Errorf("graph family %q is missing from testdata/parse.golden", name)
		}
	}
}
