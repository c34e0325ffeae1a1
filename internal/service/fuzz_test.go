package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"amnesiacflood/internal/sim"
)

// BadRunBodies are POST /v1/run bodies that decoding or normalizeRun must
// reject, named by what is wrong with them. TestBadRequests posts each one
// and expects a 400; FuzzRunRequest starts from them.
var BadRunBodies = []struct{ Name, Body string }{
	{"malformed json", `{"graph": `},
	{"unknown field", `{"graph":"cycle:n=8","nope":1}`},
	{"missing graph", `{}`},
	{"unknown family", `{"graph":"doughnut:n=8"}`},
	{"bad param", `{"graph":"cycle:n=eight"}`},
	{"unknown protocol", `{"graph":"cycle:n=8","protocol":"gossip"}`},
	{"unknown engine", `{"graph":"cycle:n=8","engine":"warp"}`},
	{"retired engine", `{"graph":"cycle:n=8","engine":"parallel"}`},
	{"bad model", `{"graph":"cycle:n=8","model":"adversary:nope"}`},
	{"bad analysis", `{"graph":"cycle:n=8","analyses":["vibes"]}`},
	{"negative origin", `{"graph":"cycle:n=8","origins":[-1]}`},
	{"model x protocol", `{"graph":"cycle:n=8","protocol":"classic","model":"adversary:collision"}`},
	{"local family", `{"graph":"edgefile:path=/etc/passwd"}`},
	{"protocol params", `{"graph":"cycle:n=8","params":{"loss":"0.05"}}`},
}

// FuzzRunRequest decodes arbitrary bytes the way decodeBody does and
// normalises them with normalizeRun. An accepted request must be runnable
// as normalised: a registered engine, at least one origin, a round stride
// of at least 1, and a timeout in (0, MaxTimeout]. The request rebuilt from
// the runSpec's canonical fields must normalise to the same poolKey, which
// is what lets two spellings of one run share a pooled session.
func FuzzRunRequest(f *testing.F) {
	for _, c := range BadRunBodies {
		f.Add([]byte(c.Body))
	}
	f.Add([]byte(`{"graph":"GRID:cols=4,rows=3","engine":" Bit ","model":"Schedule:Blink:period=2"}`))
	f.Add([]byte(`{"graph":"cycle:n=9","protocol":"Classic","origins":[2,4],"analyses":["coverage"],"timeoutMs":-5,"roundEvery":-1}`))
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		nr, err := s.normalizeRun(&req)
		if err != nil {
			return
		}
		if !slices.Contains(sim.EngineNames(), nr.engineName) {
			t.Fatalf("%s: engine %q is not one of %v", body, nr.engineName, sim.EngineNames())
		}
		if len(nr.origins) == 0 || nr.roundEvery < 1 {
			t.Fatalf("%s: origins %v, roundEvery %d", body, nr.origins, nr.roundEvery)
		}
		if nr.timeout <= 0 || nr.timeout > s.cfg.MaxTimeout {
			t.Fatalf("%s: timeout %s outside (0, %s]", body, nr.timeout, s.cfg.MaxTimeout)
		}
		canon := RunRequest{
			Graph:     nr.graph,
			Protocol:  nr.protocol,
			Engine:    nr.engineName,
			Model:     nr.model,
			Analyses:  nr.analyses,
			Seed:      nr.seed,
			MaxRounds: nr.maxRounds,
		}
		again, err := s.normalizeRun(&canon)
		if err != nil {
			t.Fatalf("%s: canonical request %+v rejected: %v", body, canon, err)
		}
		if again.poolKey() != nr.poolKey() {
			t.Fatalf("%s: pool key %q, canonical request's %q", body, nr.poolKey(), again.poolKey())
		}
	})
}
