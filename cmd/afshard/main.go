// Command afshard distributes a scenario suite across machines (see
// internal/shard). It runs in two modes:
//
// Coordinator mode partitions a scenario matrix into spec groups, serves
// the lease protocol over HTTP, merges uploaded rows into the ordinary
// sink stack (JSONL — gzip-compressed when -out ends in .gz — CSV, or an
// aggregate table), optionally journals them through a resumable
// checkpoint, and exits when the suite is merged:
//
//	afshard -mode coordinator -addr :9090 \
//	        -graphs "grid:rows=8,cols=8;cycle:n=65" -protocols amnesiac,classic \
//	        -engines sequential,fast -seeds 1,2 \
//	        -format jsonl -out suite.jsonl.gz \
//	        -retries 6 -timeout 60s -chaos "chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=100ms" \
//	        -checkpoint sweep.jsonl [-resume] [-local-workers 2]
//
// Worker mode joins a coordinator, leasing groups and executing them with
// the resilient scenario runner until the coordinator reports the suite
// done:
//
//	afshard -mode worker -coordinator http://10.0.0.5:9090 -name w1 -pool 8
//
// Any number of workers may join or die at any time; a killed worker's
// lease expires and its group is reassigned. The merged output is
// order-normalised byte-identical to a single-process `afbench -suite` run
// of the same matrix (scripts/suitediff.sh asserts it in `make
// suite-shard`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"

	// Self-registering protocols and model families: the coordinator
	// validates matrix axes against the registries, and workers execute
	// them by name.
	_ "amnesiacflood/internal/registry/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afshard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("afshard", flag.ContinueOnError)
	mode := fs.String("mode", "", "coordinator or worker (mandatory)")

	// Coordinator: matrix axes (afbench -suite spellings), listen address,
	// lease policy, sink stack, resilience policy pushed to workers.
	addr := fs.String("addr", ":9090", "coordinator listen address")
	graphs := fs.String("graphs", "", "semicolon-separated graph specs (coordinator)")
	protocols := fs.String("protocols", "amnesiac", "comma-separated protocol names (coordinator)")
	engines := fs.String("engines", "sequential", "comma-separated engine names (coordinator)")
	models := fs.String("models", "", "semicolon-separated execution-model specs (coordinator; default sync)")
	analysesFlag := fs.String("analyses", "", "semicolon-separated streaming-analysis specs attached to every cell (coordinator)")
	origins := fs.String("origins", "0", "semicolon-separated origin sets, nodes comma-separated (coordinator)")
	seeds := fs.String("seeds", "1", "comma-separated seeds (coordinator)")
	reps := fs.Int("reps", 1, "repetitions per matrix cell (coordinator)")
	maxRounds := fs.Int("maxrounds", 0, "round limit per run (coordinator)")
	format := fs.String("format", "jsonl", "output format: jsonl, csv, or table (coordinator)")
	out := fs.String("out", "", "output file; a .gz suffix gzip-compresses JSONL (coordinator; default stdout)")
	lease := fs.Duration("lease", shard.DefaultLeaseTTL, "lease TTL before an unrenewed group is reassigned (coordinator)")
	retries := fs.Int("retries", 0, "per-run retries for transient failures, applied by every worker (coordinator)")
	timeout := fs.Duration("timeout", 0, "per-run watchdog, applied by every worker (coordinator)")
	backoff := fs.Duration("backoff", 0, "base retry backoff, applied by every worker (coordinator)")
	chaosSpec := fs.String("chaos", "", "fault-injection spec, armed on every worker (coordinator)")
	checkpoint := fs.String("checkpoint", "", "JSONL checkpoint journaling merged rows for resumption (coordinator)")
	resume := fs.Bool("resume", false, "resume from -checkpoint, skipping its journaled specs (coordinator)")
	localWorkers := fs.Int("local-workers", 0, "in-process shard workers to start alongside the coordinator")

	// Worker: coordinator URL and local execution width.
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:9090 (worker)")
	name := fs.String("name", "", "worker name for lease attribution (worker; default host-derived)")
	pool := fs.Int("pool", 0, "local runner pool width per leased group (worker; 0 = GOMAXPROCS capped at 8)")

	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, or error")

	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "coordinator":
		return runCoordinator(ctx, logger, coordinatorOpts{
			addr: *addr, graphs: *graphs, protocols: *protocols, engines: *engines,
			models: *models, analyses: *analysesFlag, origins: *origins, seeds: *seeds,
			reps: *reps, maxRounds: *maxRounds, format: *format, out: *out,
			lease: *lease, retries: *retries, timeout: *timeout, backoff: *backoff,
			chaos: *chaosSpec, checkpoint: *checkpoint, resume: *resume,
			localWorkers: *localWorkers,
		})
	case "worker":
		if *coordinator == "" {
			return fmt.Errorf("-mode worker needs -coordinator (the coordinator's base URL)")
		}
		workerName := *name
		if workerName == "" {
			host, _ := os.Hostname()
			workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		w, err := shard.NewWorker(shard.WorkerConfig{
			Coordinator: *coordinator,
			Name:        workerName,
			Pool:        *pool,
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		fmt.Fprintln(os.Stderr, "afshard: worker done")
		return nil
	default:
		return fmt.Errorf("unknown -mode %q (want coordinator or worker)", *mode)
	}
}

// coordinatorOpts carries coordinator-mode flag values.
type coordinatorOpts struct {
	addr                                         string
	graphs, protocols, engines, models, analyses string
	origins, seeds                               string
	reps, maxRounds                              int
	format, out                                  string
	lease, timeout, backoff                      time.Duration
	retries                                      int
	chaos, checkpoint                            string
	resume                                       bool
	localWorkers                                 int
}

// runCoordinator expands the matrix, serves the lease protocol, and merges
// the suite.
func runCoordinator(ctx context.Context, logger *slog.Logger, o coordinatorOpts) error {
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
		return fmt.Errorf("-mode coordinator needs -graphs (semicolon-separated specs)")
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
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint (the journal to resume from)")
	}

	// Sink stack, shared with afbench's suite mode.
	switch o.format {
	case "jsonl", "csv", "table":
	default:
		return fmt.Errorf("unknown -format %q (want jsonl, csv, or table)", o.format)
	}
	var sink scenario.Sink
	var flush func() error
	var agg *scenario.Aggregate
	var w *os.File
	switch o.format {
	case "jsonl":
		if o.out != "" {
			fileSink, closer, err := scenario.NewJSONLFileSink(o.out)
			if err != nil {
				return err
			}
			defer closer.Close()
			flush = closer.Close
			sink = fileSink
		} else {
			sink = scenario.NewJSONLSink(os.Stdout)
		}
	case "csv", "table":
		w = os.Stdout
		if o.out != "" {
			f, err := os.Create(o.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if o.format == "csv" {
			metricCols, err := analysis.MetricColumns(matrix.Analyses)
			if err != nil {
				return err
			}
			csvSink := scenario.NewCSVSink(w, metricCols...)
			flush = csvSink.Flush
			defer csvSink.Flush()
			sink = csvSink
		} else {
			agg = scenario.NewAggregate()
			sink = agg
		}
	}

	var manifest *scenario.Manifest
	if o.checkpoint != "" {
		if !o.resume {
			if err := os.Remove(o.checkpoint); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		manifest, err = scenario.OpenManifest(o.checkpoint)
		if err != nil {
			return err
		}
		defer manifest.Close()
	}

	// One registry serves the whole process: the coordinator's afshard_*
	// families plus the scenario_*/afshard_worker_* families of any local
	// workers, all visible on GET /metrics.
	reg := obs.NewRegistry()
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
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Info("coordinating", "specs", len(specs), "addr", ln.Addr().String())
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
		}
	}()

	// Local workers dial loopback: a listener bound to an unspecified
	// address (the ":9090" default) is reachable at 127.0.0.1 on the same
	// port. They get their own cancel so the coordinator can stop them once
	// the suite is merged — otherwise they would keep polling a server that
	// is shutting down.
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < o.localWorkers; i++ {
		worker, err := shard.NewWorker(shard.WorkerConfig{
			Coordinator: loopbackURL(ln.Addr()),
			Name:        fmt.Sprintf("local-%d", i),
			Logger:      logger,
			Metrics:     reg,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker.Run(workerCtx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Error("local worker failed", "err", err)
			}
		}()
	}

	results, waitErr := coord.Wait(ctx)
	stopWorkers()
	wg.Wait()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if waitErr != nil {
		return waitErr
	}
	// Explicit flush so its error is checked; the deferred safety-net
	// close on the error paths is best-effort (its second-close error is
	// ignored).
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	if o.format == "table" {
		out := os.Stdout
		if w != nil {
			out = w
		}
		if err := agg.Fprint(out); err != nil {
			return err
		}
	}
	failed := 0
	for i := range results {
		if results[i].Err != "" {
			failed++
		}
	}
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "afshard: suite merged: %d rows (%d replayed, %d steals), %d failed\n",
		len(results), st.Replayed, st.Steals, failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d suite runs failed", failed, len(results))
	}
	return nil
}

// newLogger builds the daemon's structured stderr logger at the named level
// (debug/info/warn/error).
func newLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

// loopbackURL is the base URL local workers dial for a listener that may be
// bound to an unspecified address.
func loopbackURL(addr net.Addr) string {
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
