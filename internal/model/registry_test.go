package model_test

import (
	"errors"
	"strings"
	"testing"

	_ "amnesiacflood/internal/async"   // registers the adversary families
	_ "amnesiacflood/internal/dynamic" // registers the schedule families
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/model"
)

// roundTripSpecs is the canonical-spelling corpus: Parse(s).String() must
// reproduce every entry byte for byte.
var roundTripSpecs = []string{
	"sync",
	"adversary:sync",
	"adversary:collision",
	"adversary:hold",
	"adversary:hold:node=3,extra=2",
	"adversary:hold:extra=2",
	"adversary:uniform:extra=2",
	"adversary:edge:u=1,v=2,extra=1",
	"adversary:random:max=3",
	"schedule:static",
	"schedule:outage:round=1,u=0,v=3",
	"schedule:blink:period=2,phase=1",
	"schedule:blink:u=1,v=2,period=2,phase=0",
	"schedule:alternating",
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range roundTripSpecs {
		spec, err := model.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		again, err := model.Parse(spec.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", spec.String(), err)
		}
		if again.String() != spec.String() {
			t.Errorf("second round trip diverged: %q vs %q", again.String(), spec.String())
		}
	}
}

func TestParseNormalisesSpelling(t *testing.T) {
	// Case and whitespace fold; parameters re-order canonically.
	cases := map[string]string{
		" SYNC ":                               "sync",
		"Adversary:Collision":                  "adversary:collision",
		"adversary:hold:extra=2,node=3":        "adversary:hold:node=3,extra=2",
		"schedule:blink:phase=1, period=2":     "schedule:blink:period=2,phase=1",
		"SCHEDULE:OUTAGE:v=3, u=0 , round = 1": "schedule:outage:round=1,u=0,v=3",
	}
	for in, want := range cases {
		spec, err := model.Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := spec.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"sync:collision",       // sync takes no family
		"tachyonic:collision",  // unknown kind
		"adversary",            // kind without family
		"adversary:",           // empty family
		"adversary:nope",       // unknown family
		"adversary:hold:",      // trailing colon, empty params
		"adversary:hold:node",  // not key=value
		"adversary:hold:bad=1", // undeclared key
		"adversary:hold:node=x",
		"adversary:hold:node=1,node=2", // duplicate key
		"schedule:blink:period=2.5",    // float for int
		"schedule:crash:nodes=0 0",     // whitespace inside a value
		"adversary:hold:node=1\t2",
	}
	for _, s := range cases {
		if _, err := model.Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	if _, err := model.Parse("adversary:nope"); !errors.Is(err, model.ErrUnknownModel) {
		t.Errorf("unknown family error not matchable: %v", err)
	}
}

func TestFamiliesEnumeration(t *testing.T) {
	advs := model.Adversaries.Names()
	scheds := model.Schedules.Names()
	for _, want := range []string{"sync", "collision", "hold", "uniform", "edge", "random"} {
		if !contains(advs, want) {
			t.Errorf("adversary family %q not registered (have %v)", want, advs)
		}
	}
	for _, want := range []string{"static", "outage", "blink", "alternating"} {
		if !contains(scheds, want) {
			t.Errorf("schedule family %q not registered (have %v)", want, scheds)
		}
	}
	for _, s := range model.Specs() {
		if _, err := model.Parse(s); err != nil {
			t.Errorf("Specs() entry %q does not parse: %v", s, err)
		}
	}
	if model.Specs()[0] != "sync" {
		t.Errorf("Specs() must lead with sync, got %v", model.Specs()[0])
	}
}

func TestLookupInfo(t *testing.T) {
	info, ok := model.Adversaries.Lookup("hold")
	if !ok {
		t.Fatal("hold not registered")
	}
	if len(info.Params) != 2 || info.Params[0].Name != "node" || info.Params[1].Name != "extra" {
		t.Fatalf("hold params = %+v", info.Params)
	}
	if info.Random {
		t.Error("hold must not be random")
	}
	if info, _ := model.Adversaries.Lookup("random"); !info.Random {
		t.Error("random adversary must be marked Random")
	}
	if _, ok := model.Schedules.Lookup("hold"); ok {
		t.Error("adversary family leaked into the schedule kind")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := model.Build("adversary:hold:extra=-1", 1); err == nil {
		t.Error("negative extra accepted")
	}
	if _, err := model.Build("schedule:blink:period=0", 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := model.Build("schedule:blink:period=2,phase=-1", 1); err == nil {
		t.Error("negative phase accepted (edge would be permanently dead)")
	}
	if _, err := model.Build("schedule:blink:period=2,phase=2", 1); err == nil {
		t.Error("phase >= period accepted (edge would be permanently dead)")
	}
	if _, err := model.New(model.Spec{Kind: model.KindSync, Family: "x"}, 1); err == nil {
		t.Error("sync spec with family accepted")
	}
	m, err := model.Build("sync", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Adversary != nil || m.Schedule != nil || !m.Spec.IsSync() {
		t.Fatalf("sync model = %+v", m)
	}
}

// TestEngineNameIsWhatRuns: a non-sync spec's EngineName is the name the
// model engine built from it stamps on its results; the sync spec has none.
func TestEngineNameIsWhatRuns(t *testing.T) {
	g := gen.MustBuild("cycle:n=4", 1)
	for _, s := range roundTripSpecs {
		m := model.MustBuild(s, 1)
		want := ""
		if !m.Spec.IsSync() {
			want = model.NewEngine(g, m).Name()
		}
		if got := m.Spec.EngineName(); got != want {
			t.Errorf("%s: EngineName() = %q, want %q", s, got, want)
		}
	}
}

func TestBuildDefaultsApplied(t *testing.T) {
	m := model.MustBuild("schedule:blink", 1)
	sched := m.Schedule
	// Defaults: edge {0,1}, period 2, phase 0 — alive on even rounds only.
	if sched.Alive(1, edge(0, 1)) || !sched.Alive(2, edge(0, 1)) || !sched.Alive(1, edge(1, 2)) {
		t.Error("blink defaults wrong")
	}
	if sched.Period() != 2 {
		t.Errorf("period = %d, want 2", sched.Period())
	}
}

// TestSeedDeterminism: equal (spec, seed) pairs must behave identically,
// and the model axis must thread the seed into random families.
func TestSeedDeterminism(t *testing.T) {
	g := gen.MustBuild("cycle:n=9", 1)
	run := func(seed int64) model.Model {
		m, err := model.Build("adversary:random:max=3", seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	resA, err := model.NewEngine(g, run(99)).Run(t.Context(), origins(0), opts(512, true))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := model.NewEngine(g, run(99)).Run(t.Context(), origins(0), opts(512, true))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rounds != resB.Rounds || resA.TotalMessages != resB.TotalMessages {
		t.Fatalf("same seed diverged: %+v vs %+v", resA, resB)
	}
	resC, err := model.NewEngine(g, run(7)).Run(t.Context(), origins(0), opts(512, true))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rounds == resC.Rounds && resA.TotalMessages == resC.TotalMessages {
		t.Log("different seeds happened to agree (unlikely but legal)")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestSpecsListIsCanonical(t *testing.T) {
	for _, s := range model.Specs() {
		spec := model.MustParse(s)
		if spec.String() != s {
			t.Errorf("Specs() entry %q is not canonical (String() = %q)", s, spec.String())
		}
		if strings.Contains(s, " ") {
			t.Errorf("Specs() entry %q contains whitespace", s)
		}
	}
}
