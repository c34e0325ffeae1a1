// Race-enabled integration tests of the simulation service: these drive
// the full HTTP surface through httptest — concurrent tenants, the
// queue-full 429 path, per-request timeouts, panic isolation, mid-stream
// client disconnects, and graceful drain — and assert the serving layer's
// core contract: streamed results are byte-equal to a direct sim run of
// the same specs.
package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/service"
	"amnesiacflood/internal/sim"
)

// The test protocols: slowping never terminates and sleeps per round, so
// tests can hold a run open for as long (and only as long) as they need;
// panicboom panics inside round delivery, exercising panic isolation at
// the exact point protocol code runs. Both are registered once for the
// whole test binary.
func init() {
	sim.Register("slowping", func(spec sim.Spec) (engine.Protocol, error) {
		delay, err := time.ParseDuration(spec.Param("delay", "2ms"))
		if err != nil {
			return nil, err
		}
		return &pingProto{g: spec.Graph, delay: delay}, nil
	})
	sim.Register("panicboom", func(spec sim.Spec) (engine.Protocol, error) {
		return &boomProto{g: spec.Graph}, nil
	})
}

// pingProto bounces one message between node 0 and its first neighbour
// forever: no round is ever empty, so the run ends only by context,
// timeout, or round limit. The per-round sleep paces the stream.
type pingProto struct {
	g     *graph.Graph
	delay time.Duration
}

func (p *pingProto) Name() string { return "slowping" }

func (p *pingProto) Bootstrap() []engine.Send {
	return []engine.Send{{From: 0, To: p.g.Neighbors(0)[0]}}
}

func (p *pingProto) NewNode(v graph.NodeID) engine.NodeAutomaton {
	return func(round int, senders []graph.NodeID) []graph.NodeID {
		if len(senders) == 0 {
			return nil
		}
		time.Sleep(p.delay)
		return senders // bounce straight back
	}
}

// boomProto panics when round 1's delivery reaches the receiving node.
type boomProto struct{ g *graph.Graph }

func (p *boomProto) Name() string { return "panicboom" }

func (p *boomProto) Bootstrap() []engine.Send {
	return []engine.Send{{From: 0, To: p.g.Neighbors(0)[0]}}
}

func (p *boomProto) NewNode(v graph.NodeID) engine.NodeAutomaton {
	return func(round int, senders []graph.NodeID) []graph.NodeID {
		if len(senders) > 0 {
			panic("boom: injected protocol panic")
		}
		return nil
	}
}

// newTestServer boots a Server over httptest with test-friendly defaults
// (generous tenant limits unless the test overrides them).
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Tenant == (service.TenantLimits{}) {
		cfg.Tenant = service.TenantLimits{Rate: 0, MaxInFlight: 0} // unlimited
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postRun POSTs one run request and returns the response.
func postRun(t *testing.T, ts *httptest.Server, tenant string, req service.RunRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readEvents consumes an NDJSON stream to the end.
func readEvents(t *testing.T, r io.Reader) []service.RunEvent {
	t.Helper()
	var events []service.RunEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev service.RunEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return events
}

// terminal returns the stream's final event, asserting there is one.
func terminal(t *testing.T, events []service.RunEvent) service.RunEvent {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.Event != "result" && last.Event != "error" {
		t.Fatalf("stream ended with %q event, want result or error", last.Event)
	}
	return last
}

func boolp(b bool) *bool { return &b }

// discardLogger silences expected panic logs in tests that inject panics.
func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directRun executes the reference run the service must match: a traced
// fast-engine run, so callers can compare per-round message counts too
// (the analyses used here never stop early, so tracing changes no metric).
func directRun(t *testing.T, graphSpec string, seed int64, analyses []string) engine.Result {
	t.Helper()
	g, err := gen.Build(graphSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.New(g,
		sim.WithProtocol("amnesiac"),
		sim.WithEngine(sim.Fast),
		sim.WithSeed(seed),
		sim.WithAnalysis(analyses...),
		sim.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pullGraph is the parity tests' instance: a dense, non-bipartite gnp whose
// flood reaches a saturated round (at least half of the directed edges
// carry M), so the bitset engine runs its pull kernel as well as push.
const pullGraph = "gnp:n=256,p=0.1"

// TestStreamedRunMatchesDirectRun is the service's core contract: the
// final metric values of a streamed run are byte-equal (as canonical JSON)
// to a direct sim.New(...).Run of the same specs, the outcome fields agree,
// and the streamed round events carry the direct run's per-round message
// counts — on the fast engine and on the bitset engine, which serves the
// pooled session's observers from frontiers without building Sends.
func TestStreamedRunMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	analyses := []string{"coverage", "termination"}
	want := directRun(t, pullGraph, 7, analyses)
	m := gen.MustBuild(pullGraph, 7).M()
	var wantMessages []int
	pulled := false
	for _, rec := range want.Trace {
		wantMessages = append(wantMessages, len(rec.Sends))
		pulled = pulled || len(rec.Sends) >= m // half of the 2m directed edges
	}
	if !pulled {
		t.Fatalf("%s never reaches a pull round", pullGraph)
	}

	for _, eng := range []string{"fast", "bitset"} {
		t.Run(eng, func(t *testing.T) {
			resp := postRun(t, ts, "", service.RunRequest{
				Graph: pullGraph, Engine: eng, Seed: 7, Analyses: analyses,
			})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
			}
			events := readEvents(t, resp.Body)
			last := terminal(t, events)
			if last.Event != "result" {
				t.Fatalf("terminal event = %+v, want result", last)
			}
			got := last.Result
			if got.Engine != eng {
				t.Fatalf("engine = %q, want %q", got.Engine, eng)
			}
			if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages ||
				got.Terminated != want.Terminated || got.Outcome != want.Outcome.String() {
				t.Fatalf("streamed result %+v != direct %+v", got, want)
			}
			gotMetrics, _ := json.Marshal(got.Metrics)
			wantMetrics, _ := json.Marshal(want.Metrics)
			if string(gotMetrics) != string(wantMetrics) {
				t.Fatalf("metrics differ:\n service %s\n direct  %s", gotMetrics, wantMetrics)
			}

			// The stream carried per-round progress, one event per round with
			// the direct run's message count.
			var messages []int
			for _, ev := range events {
				if ev.Event == "round" {
					messages = append(messages, ev.Messages)
				}
			}
			if !slices.Equal(messages, wantMessages) {
				t.Fatalf("round event messages %v, want the direct run's %v", messages, wantMessages)
			}
		})
	}
}

// TestUnaryRunMatchesDirectRun checks the "stream":false shape against the
// same reference, on both engines.
func TestUnaryRunMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	analyses := []string{"coverage", "termination"}
	want := directRun(t, pullGraph, 3, analyses)
	for _, eng := range []string{"fast", "bitset"} {
		t.Run(eng, func(t *testing.T) {
			resp := postRun(t, ts, "", service.RunRequest{
				Graph: pullGraph, Engine: eng, Seed: 3,
				Analyses: analyses, Stream: boolp(false),
			})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var got service.RunResult
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages || got.Terminated != want.Terminated {
				t.Fatalf("unary result %+v != direct %+v", got, want)
			}
			gm, _ := json.Marshal(got.Metrics)
			wm, _ := json.Marshal(want.Metrics)
			if string(gm) != string(wm) {
				t.Fatalf("metrics differ: %s vs %s", gm, wm)
			}
			if got.N != 256 {
				t.Fatalf("graph N = %d, want 256", got.N)
			}
		})
	}
}

// TestConcurrentTenants hammers the server from several tenants at once —
// run with -race, this is the data-race gate over pool, dispatcher, and
// limiter.
func TestConcurrentTenants(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := range 24 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", i%3)
			resp := postRun(t, ts, tenant, service.RunRequest{
				Graph: "grid:rows=6,cols=6", Engine: "fast",
				Seed: int64(i % 2), Analyses: []string{"termination"},
			})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("tenant %s: status %d", tenant, resp.StatusCode)
				return
			}
			if last := terminal(t, readEvents(t, resp.Body)); last.Event != "result" {
				errs <- fmt.Errorf("tenant %s: terminal %+v", tenant, last)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueueFullBackpressure saturates a 1-slot, 1-deep server and asserts
// the overflow answers 429 with Retry-After while admitted runs complete
// and the server keeps serving afterwards.
func TestQueueFullBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})

	// Occupy the only slot with a run that ends by watchdog in 400ms.
	slow := make(chan service.RunEvent, 1)
	go func() {
		resp := postRun(t, ts, "hog", service.RunRequest{
			Graph: "cycle:n=8", Protocol: "slowping", Engine: "sequential",
			TimeoutMs: 400, Params: map[string]string{"delay": "1ms"},
		})
		defer resp.Body.Close()
		slow <- terminal(t, readEvents(t, resp.Body))
	}()
	waitFor(t, "slot occupied", func() bool { return srv.Stats().Running == 1 })

	// Fill the queue, then overflow it.
	var wg sync.WaitGroup
	codes := make(chan int, 6)
	var sawRetryAfter bool
	var mu sync.Mutex
	for i := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postRun(t, ts, fmt.Sprintf("burst-%d", i), service.RunRequest{
				Graph: "cycle:n=8", Engine: "fast", Stream: boolp(false),
			})
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				if resp.Header.Get("Retry-After") != "" {
					sawRetryAfter = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(codes)
	var ok200, rejected int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d in burst", c)
		}
	}
	if rejected == 0 {
		t.Fatal("burst over a full queue produced no 429s")
	}
	if !sawRetryAfter {
		t.Fatal("429 responses carried no Retry-After header")
	}

	// The hog's stream terminated by watchdog, and the server still serves.
	if last := <-slow; last.Event != "error" || last.Outcome != "timeout" {
		t.Fatalf("hog terminal = %+v, want timeout error", last)
	}
	resp := postRun(t, ts, "after", service.RunRequest{Graph: "cycle:n=8", Engine: "fast", Stream: boolp(false)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst run status = %d, want 200", resp.StatusCode)
	}
}

// TestPerRequestTimeout asserts the watchdog produces the structured
// timeout shape in both response modes while the daemon stays up.
func TestPerRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	longRun := service.RunRequest{
		Graph: "cycle:n=8", Protocol: "slowping", Engine: "sequential",
		TimeoutMs: 150, Params: map[string]string{"delay": "1ms"},
	}

	// Unary: 504 with a structured body.
	unary := longRun
	unary.Stream = boolp(false)
	resp := postRun(t, ts, "", unary)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unary timeout status = %d, want 504", resp.StatusCode)
	}
	var eresp service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Outcome != "timeout" || eresp.Error == "" {
		t.Fatalf("timeout body = %+v, want outcome timeout with message", eresp)
	}

	// Streaming: rounds flow, then a terminal error event with outcome
	// timeout.
	resp2 := postRun(t, ts, "", longRun)
	defer resp2.Body.Close()
	events := readEvents(t, resp2.Body)
	last := terminal(t, events)
	if last.Event != "error" || last.Outcome != "timeout" {
		t.Fatalf("stream terminal = %+v, want timeout error", last)
	}
	if len(events) < 2 {
		t.Fatalf("timeout stream carried %d events, want rounds before the error", len(events))
	}
}

// TestPanicIsolation runs a protocol that panics mid-round: the response
// must be a 500 with a structured body (or an in-stream error event), and
// the daemon must keep serving unrelated runs afterwards.
func TestPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Logger: discardLogger()})

	unary := service.RunRequest{
		Graph: "cycle:n=8", Protocol: "panicboom", Engine: "sequential", Stream: boolp(false),
	}
	resp := postRun(t, ts, "", unary)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic run status = %d, want 500", resp.StatusCode)
	}
	var eresp service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eresp.Error, "panicked") {
		t.Fatalf("panic body = %+v, want a 'panicked' message", eresp)
	}

	// Streaming shape: terminal error event.
	streaming := unary
	streaming.Stream = nil
	resp2 := postRun(t, ts, "", streaming)
	defer resp2.Body.Close()
	if last := terminal(t, readEvents(t, resp2.Body)); last.Event != "error" || !strings.Contains(last.Error, "panicked") {
		t.Fatalf("streamed panic terminal = %+v", last)
	}

	// The daemon survived: slots all free, healthy, and a normal run works.
	if got := srv.Stats().Running; got != 0 {
		t.Fatalf("running = %d after panics, want 0", got)
	}
	resp3 := postRun(t, ts, "", service.RunRequest{Graph: "grid:rows=4,cols=4", Engine: "fast", Stream: boolp(false)})
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d, want 200", resp3.StatusCode)
	}
}

// TestClientDisconnectCancelsRun hangs up mid-stream and asserts the
// server-side run is cancelled (the slot frees) rather than running to its
// timeout.
func TestClientDisconnectCancelsRun(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{DefaultTimeout: 30 * time.Second})
	body, _ := json.Marshal(service.RunRequest{
		Graph: "cycle:n=8", Protocol: "slowping", Engine: "sequential",
		Params: map[string]string{"delay": "1ms"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read one round event to prove the run is streaming, then hang up.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first event before disconnect: %v", sc.Err())
	}
	waitFor(t, "run occupying a slot", func() bool { return srv.Stats().Running == 1 })
	cancel()

	// The run must be cancelled well before its 30s timeout.
	waitFor(t, "slot freed after disconnect", func() bool { return srv.Stats().Running == 0 })
}

// TestGracefulDrain starts an in-flight streamed run, drains, and asserts:
// healthz flips to 503, new runs are refused, the in-flight stream gets
// its terminal event, and Drain returns cleanly.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})

	finished := make(chan service.RunEvent, 1)
	go func() {
		resp := postRun(t, ts, "", service.RunRequest{
			Graph: "cycle:n=8", Protocol: "slowping", Engine: "sequential",
			TimeoutMs: 400, Params: map[string]string{"delay": "1ms"},
		})
		defer resp.Body.Close()
		finished <- terminal(t, readEvents(t, resp.Body))
	}()
	waitFor(t, "run in flight", func() bool { return srv.Stats().Running == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	waitFor(t, "draining flag", srv.Draining)

	// Readiness flips; new work is refused with 503.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hresp.StatusCode)
	}
	rresp := postRun(t, ts, "", service.RunRequest{Graph: "cycle:n=8", Stream: boolp(false)})
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", rresp.StatusCode)
	}

	// The in-flight stream completes (watchdog at 400ms), then Drain
	// returns without error.
	if last := <-finished; last.Event != "error" || last.Outcome != "timeout" {
		t.Fatalf("in-flight terminal = %+v, want its own timeout", last)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := srv.Stats().Running; got != 0 {
		t.Fatalf("running after drain = %d", got)
	}
}

// TestTenantRateLimit checks the token bucket surfaces as 429 +
// Retry-After.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, service.Config{
		Tenant: service.TenantLimits{Rate: 0.01, Burst: 1, MaxInFlight: 8},
	})
	quick := service.RunRequest{Graph: "cycle:n=8", Engine: "fast", Stream: boolp(false)}
	resp1 := postRun(t, ts, "limited", quick)
	defer resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", resp1.StatusCode)
	}
	resp2 := postRun(t, ts, "limited", quick)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eresp service.ErrorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.RetryAfterMs <= 0 {
		t.Fatalf("RetryAfterMs = %d, want > 0", eresp.RetryAfterMs)
	}
	// A different tenant has its own bucket.
	resp3 := postRun(t, ts, "fresh", quick)
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh tenant status = %d, want 200", resp3.StatusCode)
	}
}

// TestTenantInFlightCap checks the per-tenant concurrency cap while other
// tenants keep running.
func TestTenantInFlightCap(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{
		Workers: 4,
		Tenant:  service.TenantLimits{MaxInFlight: 1},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postRun(t, ts, "capped", service.RunRequest{
			Graph: "cycle:n=8", Protocol: "slowping", Engine: "sequential",
			TimeoutMs: 500, Params: map[string]string{"delay": "1ms"},
		})
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()
	waitFor(t, "first run in flight", func() bool { return srv.Stats().Running == 1 })

	resp := postRun(t, ts, "capped", service.RunRequest{Graph: "cycle:n=8", Stream: boolp(false)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status = %d, want 429", resp.StatusCode)
	}
	other := postRun(t, ts, "other", service.RunRequest{Graph: "cycle:n=8", Stream: boolp(false)})
	defer other.Body.Close()
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d, want 200", other.StatusCode)
	}
	<-done
}

// TestSweep drives POST /v1/sweep and checks row/done accounting.
func TestSweep(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body, _ := json.Marshal(service.SweepRequest{
		Graphs:   []string{"cycle:n=9", "grid:rows=3,cols=3"},
		Engines:  []string{"fast", "sequential"},
		Analyses: []string{"termination"},
		Seeds:    []int64{1, 2},
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d, body %s", resp.StatusCode, rb)
	}
	var rows, cells, failed int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev service.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "row":
			rows++
			if ev.Row == nil {
				t.Fatal("row event without row")
			}
		case "done":
			sawDone, cells, failed = true, ev.Cells, ev.Failed
		case "error":
			t.Fatalf("sweep error event: %s", ev.Error)
		}
	}
	const wantCells = 2 * 2 * 2 // graphs × engines × seeds
	if !sawDone || rows != wantCells || cells != wantCells || failed != 0 {
		t.Fatalf("sweep rows=%d cells=%d failed=%d done=%v, want %d/%d/0/true",
			rows, cells, failed, sawDone, wantCells, wantCells)
	}
}

// TestSweepRejectsLocalFamily: sweeps, like runs, must not resolve graph
// families that read server-side paths on a remote caller's behalf.
func TestSweepRejectsLocalFamily(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body, _ := json.Marshal(service.SweepRequest{
		Graphs: []string{"cycle:n=9", "edgefile:path=/etc/passwd"},
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		rb, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d, want 400 (body %s)", resp.StatusCode, rb)
	}
	var eresp service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || !strings.Contains(eresp.Error, "edgefile") {
		t.Fatalf("error body %+v (err %v), want mention of edgefile", eresp, err)
	}
}

// TestRegistryEndpoint asserts all five axes are enumerated.
func TestRegistryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg service.RegistryResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Protocols) == 0 || len(reg.Engines) != 5 || len(reg.Graphs) == 0 ||
		len(reg.Models) == 0 || len(reg.Analyses) == 0 {
		t.Fatalf("registry incomplete: %d protocols, %d engines, %d graphs, %d models, %d analyses",
			len(reg.Protocols), len(reg.Engines), len(reg.Graphs), len(reg.Models), len(reg.Analyses))
	}
	var hasAmnesiac bool
	for _, p := range reg.Protocols {
		if p == "amnesiac" {
			hasAmnesiac = true
		}
	}
	if !hasAmnesiac {
		t.Fatal("registry misses the amnesiac protocol")
	}
	if reg.Models[0].Kind != "sync" {
		t.Fatalf("first model = %+v, want sync", reg.Models[0])
	}
	// Local families are rejected by the run/sweep endpoints, so the
	// registry must not advertise them as runnable.
	for _, g := range reg.Graphs {
		if g.Name == "edgefile" {
			t.Fatal("registry advertises the local-only edgefile family")
		}
	}
}

// TestSessionPoolReuse checks that identical requests share a pooled
// session and still produce identical results.
func TestSessionPoolReuse(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})
	req := service.RunRequest{
		Graph: "grid:rows=8,cols=8", Engine: "fast", Seed: 5,
		Analyses: []string{"coverage"}, Stream: boolp(false),
	}
	var results [2]service.RunResult
	for i := range 2 {
		resp := postRun(t, ts, "", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status = %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if srv.Stats().IdleSessions == 0 {
		t.Fatal("no session pooled after a completed run")
	}
	results[0].WallMicros, results[1].WallMicros = 0, 0
	results[0].Phases, results[1].Phases = nil, nil
	a, _ := json.Marshal(results[0])
	b, _ := json.Marshal(results[1])
	if string(a) != string(b) {
		t.Fatalf("pooled rerun differs:\n%s\n%s", a, b)
	}
}

// TestBadRequests covers the 400 family: malformed JSON, unknown specs,
// invalid fields.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"graph": `},
		{"unknown field", `{"graph":"cycle:n=8","nope":1}`},
		{"missing graph", `{}`},
		{"unknown family", `{"graph":"doughnut:n=8"}`},
		{"bad param", `{"graph":"cycle:n=eight"}`},
		{"unknown protocol", `{"graph":"cycle:n=8","protocol":"gossip"}`},
		{"unknown engine", `{"graph":"cycle:n=8","engine":"warp"}`},
		{"bad model", `{"graph":"cycle:n=8","model":"adversary:nope"}`},
		{"bad analysis", `{"graph":"cycle:n=8","analyses":["vibes"]}`},
		{"negative origin", `{"graph":"cycle:n=8","origins":[-1]}`},
		{"model x protocol", `{"graph":"cycle:n=8","protocol":"classic","model":"adversary:collision"}`},
		{"local family", `{"graph":"edgefile:path=/etc/passwd"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				rb, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, rb)
			}
			var eresp service.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || eresp.Error == "" {
				t.Fatalf("400 without structured body (err %v)", err)
			}
		})
	}
}

// TestSSEFormat checks the Accept-negotiated SSE framing.
func TestSSEFormat(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body, _ := json.Marshal(service.RunRequest{Graph: "cycle:n=9", Engine: "fast"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "data: ") || !strings.Contains(string(raw), "\n\n") {
		t.Fatalf("SSE framing missing in %q", raw[:min(len(raw), 120)])
	}
}

// TestMetricsEndpoint drives one unary run, one sweep, and one rejected
// request through the daemon, then scrapes GET /metrics and asserts the
// telemetry families fired: request counts labeled by endpoint/tenant/code,
// run latency and phase histograms, pool counters, occupancy gauges, the
// sweep's scenario_* rows, and healthz's uptime/version satellites.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})
	_ = srv

	resp := postRun(t, ts, "acme", service.RunRequest{Graph: "grid:rows=8,cols=8", Engine: "fast", Stream: boolp(false)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	sweepBody, _ := json.Marshal(map[string]any{"graphs": []string{"cycle:n=8"}, "seeds": []int64{1}})
	sresp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(sweepBody)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`afsimd_requests_total{endpoint="POST /v1/run",tenant="acme",code="200"} 1`,
		`afsimd_requests_total{endpoint="POST /v1/sweep",tenant="default",code="200"} 1`,
		"afsimd_run_seconds_count 1",
		`afsimd_run_phase_seconds_count{phase="run"} 1`,
		"afsimd_session_pool_builds_total 1",
		"afsimd_uptime_seconds",
		"scenario_rows_total",
		"afsimd_queue_wait_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}

	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health service.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Version == "" {
		t.Fatalf("healthz = %+v, want ok status and a version", health)
	}
}
