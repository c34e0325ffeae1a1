package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/service"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/stats"
)

// instance is one graph of a workload, with its node count so origins can
// be drawn before anything is built.
type instance struct {
	spec string
	n    int
}

// serveMix is one serve-* workload: a seeded request stream that two
// closed-loop clients send to an in-process afsimd server as POST /v1/run.
type serveMix struct {
	name      string
	instances []instance
	engines   []string
	analyses  [][]string // analysis sets; nil attaches none
	origins   int        // seeded origins drawn per instance
	// unaryEvery makes every k-th request of a client unary
	// ("stream":false); 0 streams every request as NDJSON.
	unaryEvery int
}

// serveSmall: per request the kernel does tens to hundreds of µs, so
// decode, admission, the session pool and the per-round NDJSON encode and
// flush dominate. Service-layer changes show here; kernel and observer
// changes should not.
var serveSmall = serveMix{
	name: "serve-small",
	instances: []instance{
		{"grid:rows=32,cols=32", 1024},
		{"cycle:n=1025", 1025},
		{"hypercube:d=10", 1024},
		{"gnp:n=2048,p=0.008", 2048},
		{"prefattach:n=2048,m=3", 2048},
		{"torus:rows=31,cols=33", 1023},
	},
	engines:  []string{"fast", "bitset"},
	analyses: [][]string{nil, {"coverage", "termination"}},
	origins:  32,
}

// serveDense: one pool key and about five events per request, so service
// overhead is under 1% of a request; the time goes to the bitset kernel
// plus the per-round Send records the pool's relay observer and the
// coverage analysis force. A service-only change should show nothing here.
// termination is left out: its all-pairs diameter does not finish at this
// size.
var serveDense = serveMix{
	name:       "serve-dense",
	instances:  []instance{{"gnp:n=65536,p=0.0009765625", 65536}},
	engines:    []string{"bitset"},
	analyses:   [][]string{{"coverage"}},
	origins:    16,
	unaryEvery: 2,
}

// serveKey is one pooled-session configuration of a mix.
type serveKey struct {
	inst     int // index into the mix's instances
	spec     string
	engine   string
	analyses []string
}

func (k serveKey) String() string { return fmt.Sprintf("%s/%s/%v", k.spec, k.engine, k.analyses) }

// serveStats accumulates one client's window measurements.
type serveStats struct {
	overhead, firstEvent []float64 // ms
	latencyS             float64
	bytes, events        int
	responses, streamed  int
}

// serveBench runs one serveMix.
type serveBench struct {
	mix     serveMix
	tr      *tracer
	keys    []serveKey
	origins [][]graph.NodeID // per instance
	bodies  [][][2][]byte    // per key, origin: streamed and unary request bodies
	rngs    []*rand.Rand     // per client
	sent    []int            // requests sent per client
	readers []*bufio.Reader  // per client, reused across responses

	// The running system, replaced by every set-up.
	reg    *obs.Registry
	url    string
	client *http.Client
	before obs.Snapshot

	mu       sync.Mutex
	seen     map[[2]int]*seenResult // (key, origin) → first result seen
	mismatch error
	stats    []serveStats
}

// seenResult is the first normalised result of one (key, origin); every
// later response for it must match byte for byte.
type seenResult struct {
	norm   []byte
	rounds int
}

func newServe(mix serveMix, opt options, tr *tracer) *serveBench {
	b := &serveBench{mix: mix, tr: tr, seen: map[[2]int]*seenResult{}}
	for i, inst := range mix.instances {
		b.origins = append(b.origins, distinctOrigins(rand.New(rand.NewPCG(uint64(opt.seed), uint64(i))), inst.n, mix.origins))
		for _, eng := range mix.engines {
			for _, a := range mix.analyses {
				b.keys = append(b.keys, serveKey{inst: i, spec: inst.spec, engine: eng, analyses: a})
			}
		}
	}
	for _, k := range b.keys {
		var perOrigin [][2][]byte
		for _, o := range b.origins[k.inst] {
			var bodies [2][]byte
			for unary := range 2 {
				req := service.RunRequest{
					Graph: mix.instances[k.inst].spec, Protocol: "amnesiac", Engine: k.engine,
					Analyses: k.analyses, Origins: []int{int(o)}, Seed: graphSeed,
				}
				if unary == 1 {
					req.Stream = new(bool)
				}
				bodies[unary], _ = json.Marshal(req)
			}
			perOrigin = append(perOrigin, bodies)
		}
		b.bodies = append(b.bodies, perOrigin)
	}
	for c := range b.clients() {
		b.rngs = append(b.rngs, rand.New(rand.NewPCG(uint64(opt.seed), uint64(1000+c))))
		b.readers = append(b.readers, bufio.NewReaderSize(nil, 64<<10))
	}
	b.sent = make([]int, b.clients())
	b.stats = make([]serveStats, b.clients())
	return b
}

func (b *serveBench) name() string { return b.mix.name }
func (b *serveBench) clients() int { return 2 }
func (b *serveBench) layers() []string {
	return []string{"gen", "sim", "engine", "analysis", "service"}
}

// discardLogger silences the daemons' structured logs.
var discardLogger = slog.New(slog.DiscardHandler)

// setUp starts an afsimd server on a loopback listener and warms its
// session pool. Rate limiting is off (the default of 64 requests/s would
// refuse nearly every closed-loop request); every other setting is the
// daemon's default.
func (b *serveBench) setUp(ctx context.Context) (func() error, error) {
	reg := obs.NewRegistry()
	srv := service.New(service.Config{Tenant: service.TenantLimits{MaxInFlight: 16}, Logger: discardLogger, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.clients(), DisableCompression: true}}
	b.reg, b.url, b.client = reg, "http://"+ln.Addr().String(), client
	teardown := func() error {
		client.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := errors.Join(srv.Drain(sctx), hs.Shutdown(sctx))
		<-served
		return err
	}
	if err := b.warmUp(ctx); err != nil {
		return nil, errors.Join(err, teardown())
	}
	return teardown, nil
}

// warmUp sends, for every pool key, one request from each client at the
// same moment, so the pool ends up holding a session per client for every
// key and the window does not pay session builds. Two requests build two
// sessions only when they overlap, so a key's pair is resent until the
// server has built enough; a key that never gets there is left to build
// its second session in the window.
func (b *serveBench) warmUp(ctx context.Context) error {
	builds := func() float64 { return b.reg.Snapshot().Total("afsimd_session_pool_builds_total") }
	for k := range b.keys {
		made := 0.0
		for attempt := 0; made < float64(b.clients()) && attempt < 20; attempt++ {
			before := builds()
			errs := make([]error, b.clients())
			var wg sync.WaitGroup
			for c := range b.clients() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r, err := b.send(ctx, c, k, 0, false)
					if err == nil && r.failed {
						err = fmt.Errorf("warm-up request for %s failed with status %d", b.keys[k], r.status)
					}
					errs[c] = err
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			made += builds() - before
		}
	}
	return nil
}

func (b *serveBench) begin() {
	b.before = b.reg.Snapshot()
	for c := range b.stats {
		b.stats[c] = serveStats{}
	}
}

// op sends the client's next request of the seeded stream.
func (b *serveBench) op(ctx context.Context, c int) (opResult, error) {
	rng := b.rngs[c]
	k, o := rng.IntN(len(b.keys)), rng.IntN(b.mix.origins)
	b.sent[c]++
	unary := b.mix.unaryEvery > 0 && b.sent[c]%b.mix.unaryEvery == 0
	r, err := b.send(ctx, c, k, o, unary)
	if err != nil {
		return opResult{}, err
	}
	if r.failed {
		return opResult{latency: r.latency, failed: 1}, nil
	}
	st := &b.stats[c]
	st.responses++
	st.latencyS += r.latency.Seconds()
	st.bytes += r.bytes
	st.overhead = append(st.overhead, ms(r.latency)-float64(r.wallMicros)/1e3)
	if !unary {
		st.streamed++
		st.events += r.events
		st.firstEvent = append(st.firstEvent, ms(r.firstEvent))
	}
	return opResult{latency: r.latency, units: 1}, nil
}

// sendResult is one response as the client saw it.
type sendResult struct {
	latency, firstEvent time.Duration
	status              int
	failed              bool
	bytes, events       int
	wallMicros          int64
}

// roundPrefix starts every streamed round event.
var roundPrefix = []byte(`{"event":"round"`)

// send posts one request and reads its response to the last byte. A
// refused or failed run is a failed result; only a broken connection or a
// malformed response is an error.
func (b *serveBench) send(ctx context.Context, c, k, o int, unary bool) (sendResult, error) {
	var r sendResult
	body := b.bodies[k][o][0]
	if unary {
		body = b.bodies[k][o][1]
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		r.latency, r.failed = time.Since(start), true
		return r, err
	}

	var raw []byte // the result object
	if unary {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return r, err
		}
		r.firstEvent = time.Since(start)
		r.bytes = len(data)
		raw = bytes.TrimSpace(data)
	} else {
		br := b.readers[c]
		br.Reset(resp.Body)
		var last []byte
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				r.events++
				r.bytes += len(line)
				if r.events == 1 {
					r.firstEvent = time.Since(start)
				}
				if !bytes.HasPrefix(line, roundPrefix) {
					last = append(last[:0], line...)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return r, fmt.Errorf("reading the event stream: %w", err)
			}
		}
		var ev struct {
			Event  string          `json:"event"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(last, &ev); err != nil {
			return r, fmt.Errorf("decoding the terminal event %q: %w", last, err)
		}
		if ev.Event != "result" {
			r.latency, r.failed = time.Since(start), true
			return r, nil
		}
		raw = ev.Result
	}
	end := time.Now()
	r.latency = end.Sub(start)

	// The result without its nondeterministic wallMicros and phases is what
	// every later response for the same (key, origin) must repeat.
	var res service.RunResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return r, fmt.Errorf("decoding result %s: %w", raw, err)
	}
	wall, phases := res.WallMicros, res.Phases
	res.WallMicros, res.Phases = 0, nil
	norm, err := json.Marshal(res)
	if err != nil {
		return r, err
	}
	r.wallMicros = wall
	roundEvents := -1
	if !unary {
		roundEvents = r.events - 1
	}
	b.check(k, o, &res, norm, roundEvents)
	if b.tr != nil {
		var ph service.RunPhases
		if phases != nil {
			ph = *phases
		}
		op := b.tr.newOp()
		root := b.tr.add(op, -1, "service.request", start, end)
		runStart := end.Add(-time.Duration(wall) * time.Microsecond)
		run := b.tr.add(op, root, "service.run", runStart, end)
		b.tr.add(op, run, "sim.build", runStart, runStart.Add(micros(ph.BuildMicros)))
		loopStart := runStart.Add(micros(ph.BuildMicros))
		loopEnd := loopStart.Add(micros(ph.RunMicros))
		b.tr.add(op, run, "analysis.finish", loopEnd, loopEnd.Add(micros(ph.AnalyzeMicros)))
		// The round loop is the kernel, the analyses' observation and the
		// service's own per-round streaming; the probes later place the
		// first two inside it.
		loop := b.tr.add(op, run, "service.round_loop", loopStart, loopEnd)
		b.tr.runAt(op, loop, loopStart, k)
	}
	return r, nil
}

func micros(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// check compares a result, normalised to norm, with the first one seen for
// the same (key, origin), and checks that first one when it arrives: the
// paper's termination bound must hold, and a stream must carry one round
// event per round.
func (b *serveBench) check(k, o int, res *service.RunResult, norm []byte, roundEvents int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := [2]int{k, o}
	first, ok := b.seen[key]
	if !ok {
		first = &seenResult{norm: norm, rounds: res.Rounds}
		b.seen[key] = first
		if v, ok := res.Metrics["termination.withinBounds"]; ok && v != 1 {
			b.fail(fmt.Errorf("%s origin %d: %d rounds outside the paper's termination bound: %s", b.keys[k], o, res.Rounds, norm))
		}
	}
	if !bytes.Equal(first.norm, norm) {
		b.fail(fmt.Errorf("%s origin %d: result %s differs from the earlier %s", b.keys[k], o, norm, first.norm))
	}
	if roundEvents >= 0 && roundEvents != first.rounds {
		b.fail(fmt.Errorf("%s origin %d: %d round events for %d rounds", b.keys[k], o, roundEvents, first.rounds))
	}
}

// fail records the first mismatch; called with b.mu held.
func (b *serveBench) fail(err error) {
	if b.mismatch == nil {
		b.mismatch = err
	}
}

func (b *serveBench) finish() map[string]float64 {
	after := b.reg.Snapshot()
	var all serveStats
	for _, st := range b.stats {
		all.overhead = append(all.overhead, st.overhead...)
		all.firstEvent = append(all.firstEvent, st.firstEvent...)
		all.latencyS += st.latencyS
		all.bytes += st.bytes
		all.events += st.events
		all.responses += st.responses
		all.streamed += st.streamed
	}
	runs, runS := histDelta(b.before, after, "afsimd_run_seconds")
	waits, waitS := histDelta(b.before, after, "afsimd_queue_wait_seconds")
	hits := after.Total("afsimd_session_pool_hits_total") - b.before.Total("afsimd_session_pool_hits_total")
	builds := after.Total("afsimd_session_pool_builds_total") - b.before.Total("afsimd_session_pool_builds_total")
	m := map[string]float64{
		"service.overhead_ms":      stats.Quantile(all.overhead, 0.5),
		"service.server_run_ms":    1e3 * runS / runs,
		"service.bytes_per_req":    float64(all.bytes) / float64(all.responses),
		"service.queue_wait_ms":    1e3 * waitS / waits,
		"service.queue_wait_share": waitS / all.latencyS,
		"service.pool_hit_ratio":   hits / (hits + builds),
		"service.rejections":       after.Total("afsimd_admission_rejections_total") - b.before.Total("afsimd_admission_rejections_total"),
		"service.first_event_ms":   stats.Quantile(all.firstEvent, 0.5),
		"service.events_per_req":   float64(all.events) / float64(all.streamed),
	}
	for _, phase := range []string{"build", "run", "analyze"} {
		n, s := histDelta(b.before, after, "afsimd_run_phase_seconds", phase)
		m["service.phase_"+phase+"_ms"] = 1e3 * s / n
	}
	return m
}

// histDelta is the growth of one histogram series' count and sum between
// two snapshots.
func histDelta(before, after obs.Snapshot, name string, labels ...string) (count, sum float64) {
	c0, s0 := histogram(before, name, labels)
	c1, s1 := histogram(after, name, labels)
	return c1 - c0, s1 - s0
}

func histogram(s obs.Snapshot, name string, labels []string) (count, sum float64) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			if slices.Equal(ser.Labels, labels) {
				return float64(ser.Count), ser.Sum
			}
		}
	}
	return 0, 0
}

// probes covers every pool key once, from its first origin, with both
// clients' runs at once.
func (b *serveBench) probes() ([]probeConfig, int) {
	var cfgs []probeConfig
	for _, k := range b.keys {
		kind, _ := sim.ParseEngine(k.engine)
		cfgs = append(cfgs, probeConfig{graph: b.mix.instances[k.inst].spec, protocol: "amnesiac",
			engine: kind, analyses: k.analyses, origin: b.origins[k.inst][0]})
	}
	return cfgs, b.clients()
}

// verify checks the first result of every (key, origin) — every later one
// already matched it byte for byte — against a direct sim run of the same
// specs on the fast engine, ignoring wallMicros and phases. Analysis
// metrics do not depend on the engine, so only the engine name differs.
func (b *serveBench) verify(ctx context.Context) error {
	if b.mismatch != nil {
		return b.mismatch
	}
	graphs := map[int]*graph.Graph{}
	sessions := map[string]*sim.Session{}
	for key, s := range b.seen {
		k := b.keys[key[0]]
		g, ok := graphs[k.inst]
		if !ok {
			var err error
			if g, err = gen.Build(b.mix.instances[k.inst].spec, graphSeed); err != nil {
				return err
			}
			graphs[k.inst] = g
		}
		skey := fmt.Sprint(k.inst, k.analyses)
		sess, ok := sessions[skey]
		if !ok {
			var err error
			sess, err = sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Fast), sim.WithSeed(graphSeed), sim.WithAnalysis(k.analyses...))
			if err != nil {
				return err
			}
			sessions[skey] = sess
		}
		res, err := sess.RunFrom(ctx, []graph.NodeID{b.origins[k.inst][key[1]]})
		if err != nil {
			return err
		}
		want := service.RunResult{
			Graph: g.Name(), N: g.N(), M: g.M(), Protocol: "amnesiac", Engine: k.engine, Model: res.Model,
			Outcome: res.Outcome.String(), Rounds: res.Rounds, TotalMessages: res.TotalMessages, Lost: res.Lost,
			Terminated: res.Terminated, Stopped: res.Stopped, Metrics: res.Metrics,
		}
		if res.Certificate != nil {
			want.CycleStart, want.CycleLength = res.Certificate.Start, res.Certificate.Length
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.norm, wantJSON) {
			return fmt.Errorf("%s origin %d: served %s, direct run %s", k, key[1], s.norm, wantJSON)
		}
	}
	return nil
}
