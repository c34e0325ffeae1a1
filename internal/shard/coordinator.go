// Package shard distributes a scenario suite across machines: an HTTP
// coordinator partitions the suite's specs into session-sharing groups
// (scenario.GroupKey — the same unit the in-process runner batches for
// arena reuse) and leases them to shard workers, which execute each group
// through the ordinary resilient scenario.Runner and upload the result rows.
//
// The discipline mirrors the rest of the repository: every row is a
// deterministic function of its Spec, so a sharded suite — under any worker
// count, with workers killed mid-run, under chaos injection — merges to
// output that is order-normalised byte-identical to a single-process run.
// Leases carry deadlines; a worker that dies (or stalls past its TTL
// without renewing) simply loses its lease, and the next idle worker steals
// the group. Completions are first-write-wins per spec ID, journaled
// through a scenario.Manifest when configured, so a killed coordinator
// resumes from its journal without recomputation and a raced steal cannot
// duplicate rows.
//
// See README.md in this directory for the wire protocol and the failure
// matrix, and cmd/afshard for the daemonised coordinator/worker.
package shard

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/obs"
	"amnesiacflood/internal/scenario"
)

// DefaultLeaseTTL bounds how long a worker may hold a group without
// completing or renewing it before the coordinator reassigns it.
const DefaultLeaseTTL = 30 * time.Second

// CoordinatorConfig parameterises a Coordinator. The zero value is usable.
type CoordinatorConfig struct {
	// LeaseTTL is the lease duration; expired leases are reassigned to the
	// next idle worker. Default DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Run is the execution policy pushed to every worker with each lease
	// (watchdog, retries, backoff, chaos injection), so the whole suite
	// runs under one worker-independent policy.
	Run RunConfig
	// Manifest, when non-nil, journals every merged row and replays its
	// journal at construction: specs with journaled rows are never leased,
	// so a restarted coordinator (or a fresh one over an old journal)
	// resumes instead of recomputing. The coordinator does not close it.
	Manifest *scenario.Manifest
	// Sink, when non-nil, receives every merged row exactly once, in
	// merge order (nondeterministic; order-normalise before comparing).
	// A sink error aborts the suite: Wait returns it and workers are told
	// StatusDone.
	Sink scenario.Sink
	// Logger receives lease-lifecycle events as structured records.
	// Default slog.Default(); use slog.New(slog.DiscardHandler) to
	// silence.
	Logger *slog.Logger
	// Metrics is the registry the coordinator records its afshard_*
	// families into and exposes on GET /metrics. Default: a fresh private
	// registry.
	Metrics *obs.Registry
}

// groupState is a shard group's lifecycle position.
type groupState uint8

const (
	statePending groupState = iota
	stateLeased
	stateDone
)

// shardGroup is one leaseable unit: every spec sharing a scenario.GroupKey.
type shardGroup struct {
	id    string
	specs []scenario.Spec
	ids   map[string]bool // spec IDs still missing a merged row
	state groupState
	// lease bookkeeping (stateLeased only)
	leaseID  string
	worker   string
	deadline time.Time
}

// Coordinator owns a suite's distribution state. Build one with
// NewCoordinator, mount Handler on an http.Server, and Wait for the merged
// results.
type Coordinator struct {
	cfg     CoordinatorConfig
	metrics *shardMetrics
	started time.Time

	mu        sync.Mutex
	groups    []*shardGroup
	byLease   map[string]*shardGroup
	seen      map[string]bool // merged spec IDs across all groups
	results   []scenario.Result
	remaining int // groups not yet done
	replayed  int
	steals    int
	leaseSeq  int
	sinkErr   error
	aborted   bool
	done      chan struct{}
}

// NewCoordinator partitions specs into lease groups and replays the
// configured manifest (journaled specs are merged immediately and never
// leased). Specs must already be registry-valid — the ones scenario.Matrix
// expansion produces are. The chaos spec of cfg.Run, when set, is validated
// here so a misconfigured suite fails before any worker does.
func NewCoordinator(specs []scenario.Spec, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one spec")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Run.Chaos != "" {
		if _, err := chaos.Parse(cfg.Run.Chaos); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		metrics: newShardMetrics(cfg.Metrics),
		started: time.Now(),
		byLease: map[string]*shardGroup{},
		seen:    map[string]bool{},
		done:    make(chan struct{}),
	}
	// Partition the distinct specs in first-seen order (the matrix
	// expansion order), exactly like the in-process runner, dropping specs
	// the manifest already journals — their rows merge now, without a
	// worker.
	index := map[string]*shardGroup{}
	for _, s := range scenario.Distinct(specs) {
		id := s.ID()
		if cfg.Manifest != nil {
			if row, ok := cfg.Manifest.Row(id); ok {
				c.seen[id] = true
				c.replayed++
				c.results = append(c.results, row)
				if cfg.Sink != nil {
					if err := cfg.Sink.Write(row); err != nil {
						return nil, fmt.Errorf("shard: sink: %w", err)
					}
				}
				continue
			}
		}
		key := scenario.GroupKey(s)
		grp, ok := index[key]
		if !ok {
			grp = &shardGroup{id: fmt.Sprintf("g%03d", len(c.groups)), ids: map[string]bool{}}
			index[key] = grp
			c.groups = append(c.groups, grp)
		}
		grp.specs = append(grp.specs, s)
		grp.ids[id] = true
	}
	c.remaining = len(c.groups)
	c.metrics.replayed.Add(uint64(c.replayed))
	if c.remaining == 0 {
		close(c.done) // fully resumed from the manifest
	}
	return c, nil
}

// lease grants the next available group to worker, reclaiming expired
// leases first (work stealing). The returned response is ready for the
// wire.
func (c *Coordinator) lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.suiteOver() {
		return LeaseResponse{Status: StatusDone}
	}
	c.reclaimExpired()
	for _, grp := range c.groups {
		if grp.state != statePending {
			continue
		}
		c.leaseSeq++
		grp.state = stateLeased
		grp.leaseID = fmt.Sprintf("%s.l%d", grp.id, c.leaseSeq)
		grp.worker = worker
		grp.deadline = time.Now().Add(c.cfg.LeaseTTL)
		c.byLease[grp.leaseID] = grp
		c.metrics.granted.Inc()
		c.cfg.Logger.Info("shard: leased group", "group", grp.id, "specs", len(grp.specs), "worker", worker, "lease", grp.leaseID)
		return LeaseResponse{
			Status:  StatusLease,
			LeaseID: grp.leaseID,
			GroupID: grp.id,
			Specs:   grp.specs,
			TTLMs:   c.cfg.LeaseTTL.Milliseconds(),
			Config:  c.cfg.Run,
		}
	}
	// Everything remaining is leased out; poll again well inside the TTL
	// so an expiring lease is stolen promptly.
	retry := c.cfg.LeaseTTL / 4
	if retry > time.Second {
		retry = time.Second
	}
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	return LeaseResponse{Status: StatusWait, RetryMs: retry.Milliseconds()}
}

// reclaimExpired returns every expired lease to the pending pool. Called
// with c.mu held.
func (c *Coordinator) reclaimExpired() {
	now := time.Now()
	for _, grp := range c.groups {
		if grp.state == stateLeased && now.After(grp.deadline) {
			c.cfg.Logger.Warn("shard: lease expired; reassigning", "lease", grp.leaseID, "group", grp.id, "worker", grp.worker)
			c.metrics.expired.Inc()
			c.steals++
			c.unlease(grp)
		}
	}
}

// unlease resets a leased group to pending. Called with c.mu held.
func (c *Coordinator) unlease(grp *shardGroup) {
	delete(c.byLease, grp.leaseID)
	grp.state = statePending
	grp.leaseID, grp.worker = "", ""
	grp.deadline = time.Time{}
}

// renew extends a live lease by one TTL.
func (c *Coordinator) renew(leaseID string) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.suiteOver() {
		return RenewResponse{Status: StatusDone}
	}
	grp, ok := c.byLease[leaseID]
	if !ok || grp.state != stateLeased || grp.leaseID != leaseID || time.Now().After(grp.deadline) {
		return RenewResponse{Status: StatusStale}
	}
	grp.deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.metrics.renewed.Inc()
	return RenewResponse{Status: StatusOK, TTLMs: c.cfg.LeaseTTL.Milliseconds()}
}

// complete merges one uploaded group. Rows are accepted from stale leases
// too — a worker that lost its lease but finished anyway raced the thief,
// and first-write-wins makes the race harmless — but only rows for specs of
// the named group that are still missing are merged. The group is marked
// done once every spec has a row; an upload that leaves specs uncovered
// (a worker that somehow lost rows) returns the group to pending.
func (c *Coordinator) complete(req *CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var grp *shardGroup
	for _, g := range c.groups {
		if g.id == req.GroupID {
			grp = g
			break
		}
	}
	if grp == nil {
		return CompleteResponse{}, fmt.Errorf("unknown group %q", req.GroupID)
	}
	if grp.state == stateDone || c.aborted {
		return CompleteResponse{Status: StatusStale}, nil
	}
	stale := grp.state != stateLeased || grp.leaseID != req.LeaseID
	merged := 0
	for i := range req.Rows {
		row := req.Rows[i]
		id := row.Spec.ID()
		if !grp.ids[id] || c.seen[id] {
			continue // not this group's spec, or already merged
		}
		if err := c.mergeLocked(row); err != nil {
			// A sink failure aborts the suite; rows merged before it are
			// kept (the manifest journaled them first).
			c.abortLocked(err)
			return CompleteResponse{}, err
		}
		c.seen[id] = true
		merged++
		c.metrics.rowsMerged.Inc()
		c.metrics.attempts.Add(uint64(max(row.Attempts, 0)))
	}
	covered := true
	for id := range grp.ids {
		if !c.seen[id] {
			covered = false
			break
		}
	}
	if covered {
		if grp.state == stateLeased {
			c.unlease(grp)
		}
		grp.state = stateDone
		c.remaining--
		c.cfg.Logger.Info("shard: group done", "group", grp.id, "merged", merged, "worker", req.Worker, "stale", stale, "remaining", c.remaining)
		if c.remaining == 0 {
			close(c.done)
		}
	} else if grp.state == stateLeased && grp.leaseID == req.LeaseID {
		// The lease's own upload did not cover the group: requeue the
		// remainder rather than waiting for the TTL.
		c.unlease(grp)
	}
	status := StatusOK
	if stale && merged == 0 {
		status = StatusStale
	}
	c.metrics.completions.With(status).Inc()
	return CompleteResponse{Status: status, Merged: merged}, nil
}

// mergeLocked journals and sinks one new row. Called with c.mu held and the
// row already dedup-checked.
func (c *Coordinator) mergeLocked(row scenario.Result) error {
	if c.cfg.Manifest != nil {
		if err := c.cfg.Manifest.Write(row); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	if c.cfg.Sink != nil {
		if err := c.cfg.Sink.Write(row); err != nil {
			return fmt.Errorf("sink: %w", err)
		}
	}
	c.results = append(c.results, row)
	return nil
}

// abortLocked marks the suite failed: Wait returns err and every later
// lease/renew answers StatusDone so workers exit. Called with c.mu held.
func (c *Coordinator) abortLocked(err error) {
	if c.aborted {
		return
	}
	c.aborted = true
	c.sinkErr = err
	c.cfg.Logger.Error("shard: aborting suite", "err", err)
	if c.remaining > 0 {
		close(c.done)
	}
}

// suiteOver reports completion or abort. Called with c.mu held.
func (c *Coordinator) suiteOver() bool {
	return c.remaining == 0 || c.aborted
}

// Done returns a channel closed when every group is merged (or the suite
// aborted).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the suite completes, returning every merged row sorted
// by Spec ID — the order-normalised form, byte-identical (up to
// WallMicros/Attempts) to a single-process scenario run of the same specs.
// On abort it returns the rows merged so far and the aborting error; on ctx
// expiry, ctx's error.
func (c *Coordinator) Wait(ctx context.Context) ([]scenario.Result, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		c.mu.Lock()
		defer c.mu.Unlock()
		out := append([]scenario.Result(nil), c.results...)
		scenario.SortResults(out)
		return out, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]scenario.Result(nil), c.results...)
	scenario.SortResults(out)
	return out, c.sinkErr
}

// Status snapshots the coordinator's occupancy.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{
		Groups:   len(c.groups),
		Rows:     len(c.results),
		Replayed: c.replayed,
		Steals:   c.steals,
		Complete: c.suiteOver(),
	}
	for _, grp := range c.groups {
		st.Specs += len(grp.specs)
		switch grp.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		}
	}
	st.Specs += c.replayed
	return st
}
