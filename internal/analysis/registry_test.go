package analysis_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/graph/gen"
)

func TestFamiliesRegistered(t *testing.T) {
	want := []string{"bipartite", "coverage", "echo", "quantiles", "spantree", "termination"}
	got := analysis.Families()
	if !slices.Equal(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for _, name := range want {
		fam, ok := analysis.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if fam.Doc == "" {
			t.Errorf("family %s has no doc", name)
		}
		if len(fam.Metrics) == 0 && fam.MetricsFor == nil {
			t.Errorf("family %s declares no metrics", name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"coverage",
		"termination",
		"bipartite",
		"spantree",
		"echo",
		"quantiles",
		"quantiles:metric=messages",
	}
	for _, s := range cases {
		spec, err := analysis.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("Parse(%q).String() = %q, want fixed point", s, got)
		}
		back, err := analysis.Parse(spec.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", spec.String(), err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("round trip changed %q: %#v vs %#v", s, spec, back)
		}
	}
}

func TestParseNormalisesCaseAndSpace(t *testing.T) {
	spec, err := analysis.Parse("  Quantiles : METRIC = messages ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.String() != "quantiles:metric=messages" {
		t.Fatalf("canonical form %q", spec.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"nosuch",
		"coverage:",
		"coverage:n=3",                // coverage has no parameters
		"quantiles:metric=",           // empty value
		"quantiles:zz=1",              // undeclared key
		"quantiles:metric=a,metric=b", // duplicate key
		"quantiles:metric=mess ages",  // whitespace inside a value
	}
	for _, s := range cases {
		if _, err := analysis.Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	if _, err := analysis.Parse("nosuch"); !errors.Is(err, analysis.ErrUnknownAnalysis) {
		t.Errorf("unknown family error not matchable: %v", err)
	}
}

func TestBuildRejectsBadMetric(t *testing.T) {
	g := gen.MustBuild("path:n=4", 1)
	ctx := analysis.Context{Graph: g, GraphSpec: g.Name()}
	if _, err := analysis.Build("quantiles:metric=walltime", ctx); err == nil {
		t.Fatal("quantiles accepted a nondeterministic metric")
	}
	if _, err := analysis.Build("quantiles:metric=messages", ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMetricColumns(t *testing.T) {
	cols, err := analysis.MetricColumns([]string{"coverage", "quantiles:metric=messages"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"coverage.covered", "coverage.uncovered", "coverage.maxReceives",
		"coverage.receipts", "quantiles.messages"}
	if !slices.Equal(cols, want) {
		t.Fatalf("MetricColumns = %v, want %v", cols, want)
	}
	if _, err := analysis.MetricColumns([]string{"nosuch"}); err == nil {
		t.Fatal("MetricColumns accepted an unknown family")
	}
}

func TestNewSetRejectsDuplicates(t *testing.T) {
	g := gen.MustBuild("path:n=4", 1)
	ctx := analysis.Context{Graph: g, GraphSpec: g.Name()}
	if _, err := analysis.NewSet([]string{"coverage", "coverage"}, ctx); err == nil {
		t.Fatal("duplicate family accepted")
	}
	if _, err := analysis.NewSet([]string{"coverage", "termination"}, ctx); err != nil {
		t.Fatal(err)
	}
}
