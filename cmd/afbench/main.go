// Command afbench runs evaluation suites. Its default mode reproduces
// every figure and theorem of the paper, printing one table per artifact
// (experiments.All() is the experiment index, and
// internal/experiments/testdata/runall.txt pins the default output). With
// -suite it instead drives a declarative scenario
// matrix — graph specs × protocols × engines × seeds — over a bounded
// worker pool, streaming per-run results to a JSONL/CSV/table sink.
//
// Usage:
//
//	afbench [-seed N] [-scale N] [-only E4,E7] [-engine fast]
//	afbench -suite -graphs "grid:rows=8,cols=8;cycle:n=65" \
//	        -protocols amnesiac,classic -engines sequential,fast \
//	        -seeds 1,2 -reps 3 -workers 8 -format jsonl
//	afbench -suite -graphs "cycle:n=9;grid:rows=4,cols=5" \
//	        -models "sync;adversary:collision;schedule:alternating;schedule:loss:p=0.1" \
//	        -maxrounds 4096
//	afbench -suite -graphs "cycle:n=65;grid:rows=8,cols=8" \
//	        -analyses "coverage;termination;bipartite" -format csv
//	afbench -suite -graphs "grid:rows=8,cols=8" -retries 6 -timeout 30s \
//	        -chaos "chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=100ms" \
//	        -checkpoint sweep.jsonl [-resume]
//	afbench -suite -graphs "grid:rows=8,cols=8;cycle:n=65" -format jsonl \
//	        -out suite.jsonl.gz -shard-coordinator :9090 [-shard-workers 2] \
//	        -lease 30s
//
// Suite mode is resilient: -timeout arms a per-run watchdog, -retries
// re-runs transient failures with backoff, panics in protocol or engine
// code degrade to error rows, -checkpoint journals completed rows so a
// killed sweep resumes with -resume, and -chaos injects deterministic
// faults to exercise all of the above (see internal/scenario's README).
//
// afbench -suite runs every scenario suite. It runs the matrix on the local
// runner, or, with -shard-workers or -shard-coordinator, through an
// internal/shard coordinator that leases spec groups to shard workers and
// merges their rows into the same sinks: -shard-workers N starts N workers
// in process, and -shard-coordinator ADDR serves the lease protocol on ADDR
// so that `afshard -coordinator URL` workers on other machines can join.
// SIGINT or SIGTERM stops a suite on any path.
package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/experiments"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"
	"amnesiacflood/internal/sim"

	// Self-registering protocols and model families for the scenario
	// matrix (the experiment suite pulls these in transitively; the
	// matrix addresses them by name and needs the registrations
	// regardless).
	_ "amnesiacflood/internal/registry/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("afbench", flag.ContinueOnError)
	cfg := experiments.DefaultConfig()
	seed := fs.Int64("seed", cfg.Seed, "seed for all random instances (experiment mode)")
	scale := fs.Int("scale", cfg.Scale, "instance size multiplier (experiment mode)")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default all; experiment mode)")
	engineName := fs.String("engine", sim.Sequential.String(), "engine for the single-run experiments: "+strings.Join(sim.EngineNames(), ", "))
	asJSON := fs.Bool("json", false, "emit the experiment tables as a JSON array instead of text")

	suite := fs.Bool("suite", false, "run a scenario matrix instead of the experiment suite")
	graphs := fs.String("graphs", "", "semicolon-separated graph specs, e.g. \"grid:rows=8,cols=8;cycle:n=65\" (suite mode)")
	protocols := fs.String("protocols", "amnesiac", "comma-separated protocol names (suite mode)")
	engines := fs.String("engines", sim.Sequential.String(), "comma-separated engine names (suite mode)")
	models := fs.String("models", "", "semicolon-separated execution-model specs, e.g. \"sync;adversary:collision;schedule:blink:period=2\" (suite mode; default sync)")
	analyses := fs.String("analyses", "", "semicolon-separated streaming-analysis specs attached to every cell, e.g. \"coverage;termination;quantiles:metric=messages\" (suite mode)")
	origins := fs.String("origins", "0", "semicolon-separated origin sets, nodes comma-separated, e.g. \"0;0,3\" (suite mode)")
	seeds := fs.String("seeds", "1", "comma-separated seeds (suite mode)")
	reps := fs.Int("reps", 1, "repetitions per matrix cell (suite mode)")
	workers := fs.Int("workers", 0, "suite worker pool size (0 = GOMAXPROCS capped at 8)")
	maxRounds := fs.Int("maxrounds", 0, "round limit per run (0 = engine default; suite mode)")
	format := fs.String("format", "table", "suite output format: jsonl, csv, or table")
	out := fs.String("out", "", "suite output file (default stdout)")
	retries := fs.Int("retries", 0, "retries per run for transient failures — timeouts, injected faults, panics (suite mode)")
	timeout := fs.Duration("timeout", 0, "per-run watchdog; a run exceeding it becomes an outcome=timeout row (0 = none; suite mode)")
	backoff := fs.Duration("backoff", 0, "base retry backoff, doubled per attempt with seeded jitter (0 = 10ms; suite mode)")
	chaosSpec := fs.String("chaos", "", "fault-injection spec, e.g. \"chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=100ms\" (suite mode)")
	checkpoint := fs.String("checkpoint", "", "JSONL checkpoint journaling completed rows for resumption (suite mode)")
	resume := fs.Bool("resume", false, "resume from -checkpoint, skipping its completed specs (suite mode)")
	shardWorkers := fs.Int("shard-workers", 0, "execute the suite through an in-process shard coordinator with this many shard workers (suite mode; see internal/shard)")
	shardCoordinator := fs.String("shard-coordinator", "", "listen `address` for the shard coordinator, so external workers (afshard -coordinator URL) can join (suite mode; implies sharded execution)")
	lease := fs.Duration("lease", shard.DefaultLeaseTTL, "lease TTL before a shard worker's unrenewed group is reassigned (sharded suite mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite {
		// Reject experiment-mode flags so a typo (-engine for -engines,
		// -seed for -seeds) cannot silently run the wrong matrix.
		conflicts := map[string]string{"engine": "-engines", "seed": "-seeds", "scale": "", "only": "", "json": "-format"}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if repl, ok := conflicts[f.Name]; ok {
				msg := "-" + f.Name
				if repl != "" {
					msg += " (use " + repl + ")"
				}
				bad = append(bad, msg)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("experiment-mode flags are not valid with -suite: %s", strings.Join(bad, ", "))
		}
		return runSuite(suiteOpts{
			graphs:           *graphs,
			protocols:        *protocols,
			engines:          *engines,
			models:           *models,
			analyses:         *analyses,
			origins:          *origins,
			seeds:            *seeds,
			reps:             *reps,
			workers:          *workers,
			maxRounds:        *maxRounds,
			format:           *format,
			out:              *out,
			retries:          *retries,
			timeout:          *timeout,
			backoff:          *backoff,
			chaos:            *chaosSpec,
			checkpoint:       *checkpoint,
			resume:           *resume,
			shardWorkers:     *shardWorkers,
			shardCoordinator: *shardCoordinator,
			lease:            *lease,
		})
	}

	cfg.Seed = *seed
	cfg.Scale = *scale
	kind, err := sim.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	cfg.Engine = kind

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	var collected []*experiments.Table
	for _, exp := range experiments.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		tables, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s (%s): %w", exp.ID, exp.Name, err)
		}
		for _, t := range tables {
			if *asJSON {
				collected = append(collected, t)
				continue
			}
			if err := t.Fprint(os.Stdout); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(collected)
	}
	return nil
}

// suiteOpts carries the suite-mode flag values into runSuite.
type suiteOpts struct {
	graphs     string
	protocols  string
	engines    string
	models     string
	analyses   string
	origins    string
	seeds      string
	reps       int
	workers    int
	maxRounds  int
	format     string
	out        string
	retries    int
	timeout    time.Duration
	backoff    time.Duration
	chaos      string
	checkpoint string
	resume     bool
	// shardWorkers > 0 or a non-empty shardCoordinator address routes the
	// suite through an internal/shard coordinator instead of the local
	// runner (see runShardedSuite); lease is that coordinator's lease TTL.
	shardWorkers     int
	shardCoordinator string
	lease            time.Duration
}

// sharded reports whether the suite should fan out through internal/shard.
func (o suiteOpts) sharded() bool { return o.shardWorkers > 0 || o.shardCoordinator != "" }

// runSuite expands and executes the scenario matrix described by the suite
// flags.
func runSuite(o suiteOpts) error {
	matrix := scenario.Matrix{
		Graphs:    splitList(o.graphs, ";"),
		Protocols: splitList(o.protocols, ","),
		Engines:   splitList(o.engines, ","),
		Models:    splitList(o.models, ";"),
		Analyses:  splitList(o.analyses, ";"),
		Reps:      o.reps,
		MaxRounds: o.maxRounds,
	}
	if len(matrix.Graphs) == 0 {
		return fmt.Errorf("-suite needs -graphs (semicolon-separated specs; see afsim -list for families)")
	}
	for _, set := range splitList(o.origins, ";") {
		var ids []graph.NodeID
		for _, part := range splitList(set, ",") {
			id, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("parse -origins entry %q: %w", part, err)
			}
			ids = append(ids, graph.NodeID(id))
		}
		if len(ids) > 0 {
			matrix.OriginSets = append(matrix.OriginSets, ids)
		}
	}
	for _, s := range splitList(o.seeds, ",") {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("parse -seeds entry %q: %w", s, err)
		}
		matrix.Seeds = append(matrix.Seeds, v)
	}
	specs, err := matrix.Expand()
	if err != nil {
		return err
	}

	var injector *chaos.Injector
	if o.chaos != "" {
		injector, err = chaos.Parse(o.chaos)
		if err != nil {
			return err
		}
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint (the journal to resume from)")
	}

	switch o.format {
	case "jsonl", "csv", "table":
	default:
		// Validate before os.Create so a flag typo cannot truncate an
		// existing -out file.
		return fmt.Errorf("unknown -format %q (want jsonl, csv, or table)", o.format)
	}
	var w io.Writer = os.Stdout
	var gz *gzip.Writer
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		// A .gz output path transparently compresses (stdlib gzip; the
		// module stays zero-dependency). The explicit Close on the success
		// path checks the flush error; the deferred one is the error-path
		// safety net (a second Close is a no-op).
		if strings.HasSuffix(o.out, ".gz") {
			gz = gzip.NewWriter(f)
			defer gz.Close()
			w = gz
		}
	}
	var sink scenario.Sink
	var flush func() error
	var agg *scenario.Aggregate
	switch o.format {
	case "jsonl":
		sink = scenario.NewJSONLSink(w)
	case "csv":
		metricCols, err := analysis.MetricColumns(matrix.Analyses)
		if err != nil {
			return err
		}
		csvSink := scenario.NewCSVSink(w, metricCols...)
		flush = csvSink.Flush
		// Best-effort flush on error paths too, so completed rows are not
		// lost from -out when the suite fails partway; the success path
		// below checks the flush error explicitly.
		defer csvSink.Flush()
		sink = csvSink
	case "table":
		agg = scenario.NewAggregate()
		sink = agg
	}

	// One journal serves both paths. A fresh (non-resume) run must not
	// inherit a stale journal: it would silently skip every spec the old
	// sweep completed. Without -checkpoint the journal is nil, which
	// Runner.Resume and the coordinator both run without.
	var manifest *scenario.Manifest
	if o.checkpoint != "" {
		if !o.resume {
			if err := os.Remove(o.checkpoint); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if manifest, err = scenario.OpenManifest(o.checkpoint); err != nil {
			return err
		}
	}

	// SIGINT and SIGTERM stop the suite on either path; the journal is
	// still closed below, so the stopped sweep resumes with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// One registry serves the whole suite: the local runner's telemetry and,
	// in sharded mode, the coordinator and every in-process shard worker all
	// record into it, so the end-of-suite stanza aggregates across paths.
	reg := obs.NewRegistry()
	tel := scenario.NewTelemetry(reg)
	suiteStart := time.Now()

	var results []scenario.Result
	var detail string
	if o.sharded() {
		var st shard.StatusResponse
		results, st, err = runShardedSuite(ctx, o, specs, sink, manifest, reg)
		detail = fmt.Sprintf("%d shard workers, %d replayed, %d steals", o.shardWorkers, st.Replayed, st.Steals)
	} else {
		runner := &scenario.Runner{
			Workers:    o.workers,
			Sink:       sink,
			RunTimeout: o.timeout,
			Retries:    o.retries,
			Backoff:    o.backoff,
			Chaos:      injector,
			Metrics:    tel,
		}
		results, err = runner.Resume(ctx, manifest, specs)
		workers := o.workers
		if workers <= 0 {
			workers = scenario.DefaultWorkers()
		}
		detail = fmt.Sprintf("%d workers", workers)
	}
	// Close is the journal's only fsync: a checkpoint that did not reach
	// the disk fails the suite.
	if manifest != nil {
		if cerr := manifest.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	if o.format == "table" {
		if err := agg.Fprint(w); err != nil {
			return err
		}
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	failed := 0
	for _, res := range results {
		if res.Err != "" {
			failed++
		}
	}
	fmt.Fprintf(os.Stderr, "suite: %d specs, %d failed (%s)\n", len(results), failed, detail)
	printSuiteTelemetry(tel, time.Since(suiteStart))
	if failed > 0 {
		return fmt.Errorf("%d of %d suite runs failed", failed, len(results))
	}
	return nil
}

// printSuiteTelemetry prints the end-of-suite telemetry stanza from the
// shared registry: what the resilient runner actually did to produce the
// rows, and how long the whole suite took. In sharded mode the counts
// aggregate over every in-process shard worker (external workers report to
// their own process's registry and are not included).
func printSuiteTelemetry(tel *scenario.Telemetry, wall time.Duration) {
	s := tel.Summary()
	// Millisecond rounding reads well for real suites; sub-millisecond toy
	// matrices keep microsecond precision instead of printing "0s".
	r := time.Millisecond
	if wall < time.Millisecond {
		r = time.Microsecond
	}
	fmt.Fprintf(os.Stderr,
		"suite telemetry: rows=%d attempts=%d retries=%d timeouts=%d panics=%d chaos=%d wall=%s\n",
		s.Rows, s.Attempts, s.Retries, s.Timeouts, s.Panics, s.ChaosFaults, wall.Round(r))
}

// runShardedSuite executes the suite through an internal/shard coordinator:
// the matrix is partitioned into lease groups, in-process shard workers (and,
// when -shard-coordinator names a reachable address, external `afshard
// -coordinator URL` processes) execute them through the ordinary resilient
// runner, and the coordinator merges the uploads into the ordinary sink
// stack, journaling them through manifest when it is non-nil. The merged
// output is order-normalised byte-identical to the single-process path. It
// also returns the coordinator's final status, for the replay and steal
// counts.
func runShardedSuite(ctx context.Context, o suiteOpts, specs []scenario.Spec, sink scenario.Sink, manifest *scenario.Manifest, reg *obs.Registry) ([]scenario.Result, shard.StatusResponse, error) {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	coord, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{
		LeaseTTL: o.lease,
		Run: shard.RunConfig{
			TimeoutMs: o.timeout.Milliseconds(),
			Retries:   o.retries,
			BackoffMs: o.backoff.Milliseconds(),
			Chaos:     o.chaos,
		},
		Manifest: manifest,
		Sink:     sink,
		Logger:   logger,
		Metrics:  reg,
	})
	if err != nil {
		return nil, shard.StatusResponse{}, err
	}

	addr := o.shardCoordinator
	if addr == "" {
		addr = "127.0.0.1:0" // loopback only: purely in-process fan-out
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, shard.StatusResponse{}, err
	}
	srv := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	// A graceful shutdown lets an upload in flight when the suite ends get
	// its answer, so its worker exits instead of retrying.
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if o.shardCoordinator != "" {
		fmt.Fprintf(os.Stderr, "suite: shard coordinator listening on %s\n", ln.Addr())
	}

	waitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var workerMu sync.Mutex
	var workerErr error
	base := coordinatorURL(ln.Addr())
	for i := 0; i < o.shardWorkers; i++ {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Coordinator: base,
			Name:        fmt.Sprintf("local-%d", i),
			Pool:        o.workers,
			Logger:      logger,
			Metrics:     reg,
		})
		if err != nil {
			return nil, shard.StatusResponse{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(waitCtx); err != nil && !errors.Is(err, context.Canceled) {
				workerMu.Lock()
				if workerErr == nil {
					workerErr = err
				}
				workerMu.Unlock()
			}
		}()
	}
	if o.shardWorkers > 0 && o.shardCoordinator == "" {
		// Pure in-process fan-out: if every local worker dies the suite can
		// never finish, so stop waiting instead of hanging forever.
		go func() {
			wg.Wait()
			select {
			case <-coord.Done():
			default:
				cancel()
			}
		}()
	}
	results, err := coord.Wait(waitCtx)
	if o.shardCoordinator != "" {
		// External workers poll this listener: keep serving until each
		// has heard the suite is done (local workers hear it the same
		// way), so the shutdown below strands none of them.
		coord.Drain(ctx)
	}
	cancel()
	wg.Wait()
	// wg.Wait orders every worker's write of workerErr before this read.
	if err != nil && workerErr != nil {
		err = fmt.Errorf("shard worker: %w", workerErr)
	}
	return results, coord.Status(), err
}

// coordinatorURL builds the loopback base URL in-process shard workers dial:
// a listener bound to an unspecified address (e.g. ":9090") is reachable at
// 127.0.0.1 on the same port.
func coordinatorURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// splitList splits on sep, trimming whitespace and dropping empties.
func splitList(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
