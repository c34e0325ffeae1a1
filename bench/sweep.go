package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"
	"amnesiacflood/internal/sim"
)

// The sweep-shard matrix: no observer is attached, so rows time the
// kernels alone, and both engines run on Θ(n)-round sparse shapes (cycle,
// grid) and on dense ones, so a kernel change that helps one engine or
// shape and hurts another shows here. Every graph has at least 16384
// nodes, so the seeded origins are valid on all of them.
var (
	sweepGraphs = []string{
		"grid:rows=128,cols=128",
		"gnp:n=16384,p=0.001",
		"hypercube:d=14",
		"cycle:n=16385",
		"prefattach:n=16384,m=4",
	}
	sweepProtocols = []string{"amnesiac", "classic"}
	sweepEngines   = []string{"fast", "bitset"}
)

const (
	sweepOrigins = 32    // seeded single origins per cell
	sweepNodes   = 16384 // the smallest graph's node count
	sweepWorkers = 2     // in-process shard workers, one runner slot each
)

// sweepBench runs repeated suites through a loopback shard coordinator and
// in-process workers that upload their rows gzip-compressed.
type sweepBench struct {
	tr    *tracer
	specs []scenario.Spec

	// The running system's metrics, replaced by every set-up: coordinator
	// and worker metrics in one registry, as afshard shares one.
	reg    *obs.Registry
	before obs.Snapshot
	suite  atomic.Pointer[suiteTrace] // the suite in flight, for worker spans

	first    []byte // order-normalised rows of the first suite
	mismatch error
	stats    sweepStats
}

// sweepStats accumulates the window's suites.
type sweepStats struct {
	suites, rows        int
	suiteS, rowS        float64
	attempts, sinkWrite int
	sinkS               float64
}

func newSweep(opt options, tr *tracer) (*sweepBench, error) {
	var origins [][]graph.NodeID
	for _, o := range distinctOrigins(rand.New(rand.NewPCG(uint64(opt.seed), 0)), sweepNodes, sweepOrigins) {
		origins = append(origins, []graph.NodeID{o})
	}
	specs, err := scenario.Matrix{
		Graphs: sweepGraphs, Protocols: sweepProtocols, Engines: sweepEngines,
		OriginSets: origins, Seeds: []int64{graphSeed},
	}.Expand()
	if err != nil {
		return nil, err
	}
	return &sweepBench{tr: tr, specs: specs}, nil
}

func (b *sweepBench) name() string     { return "sweep-shard" }
func (b *sweepBench) clients() int     { return 1 }
func (b *sweepBench) layers() []string { return []string{"gen", "sim", "engine", "scenario", "shard"} }

// setUp runs one warm-up suite. Every suite starts and stops its own
// coordinator, so nothing outlives it.
func (b *sweepBench) setUp(ctx context.Context) (func() error, error) {
	b.reg = obs.NewRegistry()
	if _, err := b.runSuite(ctx); err != nil {
		return nil, err
	}
	return func() error { return nil }, nil
}

func (b *sweepBench) begin() {
	b.before = b.reg.Snapshot()
	b.stats = sweepStats{}
}

func (b *sweepBench) op(ctx context.Context, _ int) (opResult, error) {
	s, err := b.runSuite(ctx)
	if err != nil {
		return opResult{}, err
	}
	b.stats.suites++
	b.stats.rows += s.rows
	b.stats.suiteS += s.latency.Seconds()
	b.stats.rowS += s.rowS
	b.stats.attempts += s.attempts
	b.stats.sinkWrite += s.sink.writes
	b.stats.sinkS += s.sink.seconds
	return opResult{latency: s.latency, units: s.rows - s.failed, failed: s.failed}, nil
}

// suiteOutcome is one suite as the benchmark saw it.
type suiteOutcome struct {
	latency                time.Duration
	rows, failed, attempts int
	rowS                   float64
	sink                   *timedSink
}

// runSuite runs one suite: a new coordinator over the matrix on its own
// loopback listener, two workers leasing its groups, and the merged rows
// checked against the first suite. Its latency runs from the coordinator's
// construction to the merged rows; stopping the workers and the listener
// does not count.
func (b *sweepBench) runSuite(ctx context.Context) (out suiteOutcome, err error) {
	out.sink = &timedSink{sink: scenario.NewJSONLSink(io.Discard)}
	op := b.tr.newOp()
	st := &suiteTrace{op: op, lastLease: make([]time.Time, sweepWorkers)}
	start := time.Now()
	coord, err := shard.NewCoordinator(b.specs, shard.CoordinatorConfig{Sink: out.sink, Logger: discardLogger, Metrics: b.reg})
	if err != nil {
		return out, err
	}
	// A listener per suite, as each afshard run has: a stopped worker may
	// leave a lease request in flight, and on a listener the next suite
	// shared it could lease that suite a group nobody runs, stalling it for
	// a lease TTL. The server is closed rather than shut down: a stopped
	// worker's transport may have dialled a connection it never sends on,
	// and Shutdown waits 5 s before it counts such a connection idle.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		err = errors.Join(err, hs.Close())
		<-served
	}()
	st.root = b.tr.add(op, -1, "shard.suite", start, start) // end fixed below
	b.suite.Store(st)

	workers := make([]*shard.Worker, sweepWorkers)
	for i := range workers {
		if workers[i], err = shard.NewWorker(shard.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(), Name: fmt.Sprintf("w%d", i), Pool: 1,
			Client: &http.Client{Timeout: 30 * time.Second, Transport: &workerTransport{b: b, worker: i}},
			Logger: discardLogger, Metrics: b.reg,
		}); err != nil {
			return out, err
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, sweepWorkers)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(wctx)
		}()
	}
	rows, err := coord.Wait(ctx)
	end := time.Now()
	out.latency = end.Sub(start)
	b.tr.setEnd(st.root, end)
	// Every row is merged, so a worker still polling (it sleeps up to a
	// second between polls while the last group runs elsewhere) is stopped
	// rather than waited for; the next suite starts at once.
	cancel()
	wg.Wait()
	if err != nil {
		return out, err
	}
	for i := range errs {
		if errors.Is(errs[i], context.Canceled) && ctx.Err() == nil {
			errs[i] = nil
		}
	}
	if err := errors.Join(errs...); err != nil {
		return out, fmt.Errorf("shard worker: %w", err)
	}

	out.rows = len(rows)
	for i := range rows {
		if rows[i].Err != "" {
			out.failed++
		}
		out.rowS += float64(rows[i].WallMicros) / 1e6
		out.attempts += rows[i].Attempts
	}
	norm, err := normaliseRows(rows)
	if err != nil {
		return out, err
	}
	switch {
	case b.first == nil:
		b.first = norm
	case !bytes.Equal(norm, b.first) && b.mismatch == nil:
		b.mismatch = fmt.Errorf("suite rows differ from the first suite's")
	}
	return out, nil
}

// normaliseRows renders merged rows in the order-normalised form the shard
// layer promises is byte-identical to a single-process run: sorted by spec
// ID, with the execution-dependent WallMicros and Attempts zeroed.
func normaliseRows(rows []scenario.Result) ([]byte, error) {
	cp := append([]scenario.Result(nil), rows...)
	scenario.SortResults(cp)
	for i := range cp {
		cp[i].WallMicros, cp[i].Attempts = 0, 0
	}
	return json.Marshal(cp)
}

// timedSink is the coordinator's merge sink: JSONL encoding, as afshard
// writes its output, timed per row.
type timedSink struct {
	sink    scenario.Sink
	writes  int
	seconds float64
}

// Write implements scenario.Sink. The coordinator calls it under its own
// lock, one row at a time.
func (s *timedSink) Write(r scenario.Result) error {
	start := time.Now()
	err := s.sink.Write(r)
	s.seconds += time.Since(start).Seconds()
	s.writes++
	return err
}

// suiteTrace is the traced run's view of the suite in flight.
type suiteTrace struct {
	op        int64
	root      int
	mu        sync.Mutex
	lastLease []time.Time // per worker: when its last lease call returned
}

// workerTransport times a worker's calls into the coordinator. When the
// run is traced it records them as spans of the suite in flight: the lease
// and upload round trips, the group run between them, and the group's
// rows laid end to end inside it from their reported wall time.
type workerTransport struct {
	b      *sweepBench
	worker int
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.b.tr
	if tr == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	st := t.b.suite.Load()
	path := req.URL.Path
	var rows []scenario.Result
	if path == "/v1/complete" && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		if rows, err = uploadedRows(body); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	end := time.Now()
	name := "shard." + strings.TrimPrefix(path, "/v1/")
	tr.add(st.op, st.root, name, start, end)
	st.mu.Lock()
	defer st.mu.Unlock()
	switch path {
	case "/v1/lease":
		st.lastLease[t.worker] = end
	case "/v1/complete":
		group := tr.add(st.op, st.root, "scenario.group", st.lastLease[t.worker], start)
		// The rows report durations only. They run back to back after the
		// group's graph is built, so they are laid ending at the upload.
		rowStart := start
		for i := range rows {
			rowStart = rowStart.Add(-micros(rows[i].WallMicros))
		}
		for i := range rows {
			rowEnd := rowStart.Add(micros(rows[i].WallMicros))
			tr.add(st.op, group, "engine.row", rowStart, rowEnd)
			rowStart = rowEnd
		}
	}
	return resp, err
}

// uploadedRows decodes a worker's gzip-compressed completion body.
func uploadedRows(body []byte) ([]scenario.Result, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var req shard.CompleteRequest
	if err := json.NewDecoder(zr).Decode(&req); err != nil {
		return nil, err
	}
	return req.Rows, nil
}

func (b *sweepBench) finish() map[string]float64 {
	after := b.reg.Snapshot()
	s := b.stats
	delta := func(name string) float64 { return after.Total(name) - b.before.Total(name) }
	return map[string]float64{
		"scenario.row_run_ms":        1e3 * s.rowS / float64(s.rows),
		"scenario.attempts_per_row":  float64(s.attempts) / float64(s.rows),
		"scenario.sink_write_ms":     1e3 * s.sinkS / float64(s.sinkWrite),
		"shard.leases_per_suite":     delta("afshard_leases_granted_total") / float64(s.suites),
		"shard.upload_bytes_per_row": delta("afshard_upload_bytes_total") / float64(s.rows),
		"shard.worker_idle_share":    1 - s.rowS/(sweepWorkers*s.suiteS),
	}
}

// probes covers every session-sharing group of the matrix once, from its
// first origin, with both workers' runs at once.
func (b *sweepBench) probes() ([]probeConfig, int) {
	var cfgs []probeConfig
	seen := map[string]bool{}
	for _, s := range b.specs {
		key := scenario.GroupKey(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		kind, _ := sim.ParseEngine(s.Engine)
		cfgs = append(cfgs, probeConfig{graph: s.Graph, protocol: s.Protocol, engine: kind, origin: s.Origins[0]})
	}
	return cfgs, sweepWorkers
}

// verify checks the merged rows — every suite already matched the first —
// against a single-process scenario.Runner run of the same specs.
func (b *sweepBench) verify(ctx context.Context) error {
	if b.mismatch != nil {
		return b.mismatch
	}
	rows, err := (&scenario.Runner{Workers: 1}).Run(ctx, b.specs)
	if err != nil {
		return err
	}
	want, err := normaliseRows(rows)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, b.first) {
		return fmt.Errorf("sharded rows differ from a single-process run of the same suite")
	}
	return nil
}
