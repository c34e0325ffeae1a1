package shard

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
)

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://10.0.0.5:9090" (mandatory).
	Coordinator string
	// Name attributes leases and uploads; default "worker".
	Name string
	// Pool bounds the local scenario.Runner pool each leased group runs
	// over; <= 0 means scenario.DefaultWorkers.
	Pool int
	// Client is the HTTP client; default http.DefaultClient with a 30s
	// per-call timeout.
	Client *http.Client
	// PollInterval is the idle sleep when the coordinator answers
	// StatusWait without a retry hint, and the base backoff on transport
	// errors. Default 200ms.
	PollInterval time.Duration
	// MaxErrors bounds consecutive transport failures before the worker
	// gives up on the coordinator. Default 30.
	MaxErrors int
	// Logger receives lease-lifecycle events as structured records.
	// Default slog.Default(); use slog.New(slog.DiscardHandler) to
	// silence.
	Logger *slog.Logger
	// Metrics, when non-nil, receives the worker's telemetry: the
	// afshard_worker_* counters and the scenario_* families of every lease
	// runner (scenario.Telemetry). In-process fleets (afbench
	// -shard-workers) share one registry across workers, so the totals
	// aggregate.
	Metrics *obs.Registry
}

// Worker pulls spec-group leases from a coordinator, executes them through
// the ordinary resilient scenario.Runner (the coordinator's RunConfig arms
// the same watchdog/retry/chaos policy on every worker), and uploads the
// rows gzip-compressed. A worker holds no suite state: kill it at any point
// and its lease expires back to the pool.
type Worker struct {
	cfg WorkerConfig
	// tel/leases/uploads are nil without a Metrics registry (recording is
	// nil-safe for tel; the counters are guarded).
	tel     *scenario.Telemetry
	leases  *obs.Counter
	uploads *obs.Counter
}

// NewWorker validates the config and returns a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if strings.TrimSpace(cfg.Coordinator) == "" {
		return nil, fmt.Errorf("shard: worker needs a coordinator URL")
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.MaxErrors <= 0 {
		cfg.MaxErrors = 30
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	w := &Worker{cfg: cfg}
	if cfg.Metrics != nil {
		w.tel = scenario.NewTelemetry(cfg.Metrics)
		w.leases = cfg.Metrics.Counter("afshard_worker_leases_total", "Leases this worker executed.")
		w.uploads = cfg.Metrics.Counter("afshard_worker_uploads_total", "Completed-group uploads this worker sent.")
	}
	return w, nil
}

// Run polls the coordinator until it reports the suite done (returning nil),
// the context is cancelled (returning its error), or MaxErrors consecutive
// transport failures accumulate (returning the last one).
func (w *Worker) Run(ctx context.Context) error {
	consecutive := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.cfg.Name}, &lease, false); err != nil {
			consecutive++
			if consecutive >= w.cfg.MaxErrors {
				return fmt.Errorf("shard: coordinator unreachable after %d attempts: %w", consecutive, err)
			}
			if !sleepCtx(ctx, w.backoff(consecutive)) {
				return ctx.Err()
			}
			continue
		}
		consecutive = 0
		switch lease.Status {
		case StatusDone:
			return nil
		case StatusWait:
			wait := time.Duration(lease.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = w.cfg.PollInterval
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		case StatusLease:
			if err := w.executeLease(ctx, &lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("shard: coordinator answered unknown status %q", lease.Status)
		}
	}
}

// executeLease runs one granted group and uploads its rows, heartbeating
// the lease at TTL/3 while the run is in flight. A stale heartbeat means
// the lease was reassigned: the group run is cancelled and its rows are
// dropped (the thief's rows are identical anyway).
func (w *Worker) executeLease(ctx context.Context, lease *LeaseResponse) error {
	if w.leases != nil {
		w.leases.Inc()
	}
	runner := &scenario.Runner{
		Workers:    w.cfg.Pool,
		RunTimeout: lease.Config.runTimeout(),
		Retries:    lease.Config.Retries,
		Backoff:    lease.Config.backoff(),
		Metrics:    w.tel,
	}
	if lease.Config.Chaos != "" {
		inj, err := chaos.Parse(lease.Config.Chaos)
		if err != nil {
			return fmt.Errorf("shard: coordinator sent a bad chaos spec: %w", err)
		}
		runner.Chaos = inj
	}

	groupCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go w.heartbeat(groupCtx, lease, cancel, hbDone)

	rows, err := runner.Run(groupCtx, lease.Specs)
	cancel()
	<-hbDone
	if err != nil {
		// Either the suite context was cancelled (propagate) or the
		// heartbeat found the lease stale (abandon the group silently; it
		// is someone else's now).
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.cfg.Logger.Warn("shard: abandoning group", "worker", w.cfg.Name, "group", lease.GroupID, "err", err)
		return nil
	}
	var resp CompleteResponse
	req := CompleteRequest{LeaseID: lease.LeaseID, GroupID: lease.GroupID, Worker: w.cfg.Name, Rows: rows}
	for attempt := 1; ; attempt++ {
		err = w.post(ctx, "/v1/complete", req, &resp, true)
		if err == nil {
			break
		}
		if attempt >= w.cfg.MaxErrors {
			return fmt.Errorf("shard: uploading %s failed after %d attempts: %w", lease.GroupID, attempt, err)
		}
		if !sleepCtx(ctx, w.backoff(attempt)) {
			return ctx.Err()
		}
	}
	if w.uploads != nil {
		w.uploads.Inc()
	}
	w.cfg.Logger.Info("shard: completed group", "worker", w.cfg.Name, "group", lease.GroupID, "rows", len(rows), "status", resp.Status)
	return nil
}

// heartbeat renews the lease every TTL/3 until ctx is cancelled, cancelling
// the group run if the coordinator reports the lease stale or the suite
// done.
func (w *Worker) heartbeat(ctx context.Context, lease *LeaseResponse, cancel context.CancelFunc, done chan<- struct{}) {
	defer close(done)
	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	if ttl <= 0 {
		return
	}
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			var resp RenewResponse
			if err := w.post(ctx, "/v1/renew", RenewRequest{LeaseID: lease.LeaseID, Worker: w.cfg.Name}, &resp, false); err != nil {
				continue // transient; the lease survives until its TTL
			}
			if resp.Status != StatusOK {
				w.cfg.Logger.Warn("shard: lease no longer ours; cancelling group", "worker", w.cfg.Name, "lease", lease.LeaseID, "status", resp.Status)
				cancel()
				return
			}
		}
	}
}

// post sends one JSON request and decodes the JSON response. compress
// gzips the body (Content-Encoding: gzip) — always used for row uploads.
func (w *Worker) post(ctx context.Context, path string, body, out any, compress bool) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if compress {
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	} else {
		buf.Write(payload)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if compress {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s answered %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// backoff is the worker's transport-retry delay: PollInterval doubled per
// consecutive failure, capped at 16x.
func (w *Worker) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 4 {
		shift = 4
	}
	return w.cfg.PollInterval << shift
}

// sleepCtx sleeps for d or until ctx is done, reporting which.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
